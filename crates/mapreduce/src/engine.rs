//! Engine configuration and shard assignment. A round runs through
//! [`crate::Round::run`] with an [`EngineConfig`].

use crate::pool::WorkerPool;
use std::path::PathBuf;
use std::sync::Arc;

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Number of worker threads for both the map and the reduce phase.
    /// Defaults to the number of available CPUs (at least 1).
    pub num_threads: usize,
    /// Resident-memory budget in bytes for a round's in-flight arena records
    /// (0, the default, means unbounded — never touch disk). When the sealed
    /// arena chunks of a round cross this budget, map workers spill them to
    /// run files under [`EngineConfig::spill_dir`] and the reduce phase
    /// streams them back, so the arena's share of peak RSS tracks the budget
    /// instead of the workload. The budget meters arena chunk bytes only:
    /// per reduce worker, one bucket's decoded groups (see
    /// [`EngineConfig::reduce_partitions`]) and the reducer's own working
    /// memory sit outside it, and one key's group is never split.
    /// Outputs and all non-spill [`crate::JobMetrics`] counters are
    /// byte-identical at any budget (the parity suites pin it).
    pub memory_budget: usize,
    /// Base directory for spill run files (`None`, the default, uses the OS
    /// temp dir). Each round creates — and removes on completion *and* on
    /// panic — a uniquely named subdirectory inside it, so a shared base
    /// never accumulates stale runs. Validate a user-supplied directory up
    /// front with [`EngineConfig::validate_spill_dir`]; a mid-round I/O
    /// failure panics with the offending run file and spill dir named.
    pub spill_dir: Option<PathBuf>,
    /// The worker pool rounds run on: `None` (the default) is the
    /// lazily-created process-global [`WorkerPool::global`]. Private — set
    /// through [`EngineConfig::with_pool`].
    pub(crate) pool: Option<Arc<WorkerPool>>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            num_threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            memory_budget: 0,
            spill_dir: None,
            pool: None,
        }
    }
}

impl EngineConfig {
    /// A single-threaded configuration (useful in tests and for debugging).
    pub fn serial() -> Self {
        EngineConfig {
            num_threads: 1,
            ..EngineConfig::default()
        }
    }

    /// A configuration with an explicit thread count.
    pub fn with_threads(num_threads: usize) -> Self {
        EngineConfig {
            num_threads: num_threads.max(1),
            ..EngineConfig::default()
        }
    }

    /// Sets the resident-memory budget in bytes for in-flight arena records
    /// (see [`EngineConfig::memory_budget`]; 0 disables spilling).
    pub fn memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = bytes;
        self
    }

    /// Sets the base directory for spill run files (see
    /// [`EngineConfig::spill_dir`]).
    pub fn spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    /// Fail-fast writability probe for the configured spill location: creates
    /// and removes a uniquely named probe directory under
    /// [`EngineConfig::spill_dir`] (or the OS temp dir). Callers that accept a
    /// user-supplied spill directory run this at startup so an unwritable
    /// path is reported before any work starts, not as a mid-round panic.
    /// Always `Ok` when nothing would ever spill (no budget, no explicit
    /// directory); the error message names the offending directory.
    pub fn validate_spill_dir(&self) -> Result<(), String> {
        if self.memory_budget == 0 && self.spill_dir.is_none() {
            return Ok(());
        }
        crate::spill::validate_base_dir(self.spill_dir.as_deref())
    }

    /// Runs rounds on the given shared [`WorkerPool`] instead of the
    /// process-global one. A long-lived service creates one pool and passes
    /// it to every query so concurrent requests share a fixed set of worker
    /// threads (and the pool's recycled shuffle buffers).
    pub fn with_pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// The pool rounds run on.
    pub(crate) fn pool(&self) -> &Arc<WorkerPool> {
        self.pool.as_ref().unwrap_or_else(|| WorkerPool::global())
    }

    /// The number of reduce partitions a run delivers keys by, `threads ×
    /// 16`: the sink receives a round's outputs in (partition, key) order of
    /// their keys, where a key's partition is
    /// `shard_for_hash(hash, reduce_partitions())`. The count depends on the
    /// thread count alone, so output order is the same at every memory
    /// budget; there is nothing to set.
    pub fn reduce_partitions(&self) -> usize {
        self.num_threads.max(1) * PARTITIONS_PER_WORKER
    }

    /// How many reduce buckets each thread's 16 partitions are grouped into:
    /// the map side routes records into `threads × passes` buckets of
    /// `16 / passes` consecutive partitions each, a reduce task decodes,
    /// groups, reduces and frees one bucket before it claims the next, and
    /// the sink receives one shard per bucket. 16 (one partition per bucket)
    /// without a budget; under one, the largest power of two at most
    /// `budget / (threads² · 16 KiB)`, clamped to [1, 16], so every map
    /// task's open chunk tails still fit the budget. A power of two divides
    /// 16, so a bucket is a whole run of partitions and the delivery order
    /// is the same at every budget.
    pub fn reduce_passes(&self) -> usize {
        let threads = self.num_threads.max(1);
        match self.memory_budget {
            0 => PARTITIONS_PER_WORKER,
            budget => {
                let fit =
                    (budget / (threads * threads * (16 << 10))).clamp(1, PARTITIONS_PER_WORKER);
                1 << fit.ilog2()
            }
        }
    }
}

/// Reduce partitions per thread, and so the most buckets they are grouped
/// into (see [`EngineConfig::reduce_passes`]).
pub(crate) const PARTITIONS_PER_WORKER: usize = 16;

/// Maps a 64-bit key hash onto `[0, shards)` with the multiply-shift
/// ("fastrange") reduction `(hash * shards) >> 64`. Unlike `hash % shards`,
/// this uses the hash's high bits, is division-free, and keeps shard loads
/// balanced even when the hashes are clustered in a sub-range.
pub fn shard_for_hash(hash: u64, shards: usize) -> usize {
    debug_assert!(shards > 0);
    (((hash as u128) * (shards as u128)) >> 64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::hash_of;
    use crate::metrics::JobMetrics;
    use crate::reference::collect;
    use crate::round::Round;
    use crate::sink::{BufferShard, OutputSink, SinkShard};
    use crate::task::{MapContext, ReduceContext};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    /// Word-count style job: count occurrences of each number modulo 10.
    fn modulo_count(inputs: &[u64], threads: usize) -> (Vec<(u64, usize)>, JobMetrics) {
        let mapper = |x: &u64, ctx: &mut MapContext<u64, u64>| ctx.emit(x % 10, *x);
        let reducer = |k: &u64, vs: &[u64], ctx: &mut ReduceContext<(u64, usize)>| {
            ctx.add_work(vs.len() as u64);
            ctx.emit((*k, vs.len()));
        };
        collect(
            &Round::new("job", mapper, reducer),
            inputs,
            &EngineConfig::with_threads(threads),
        )
    }

    #[test]
    fn counts_are_correct_and_metrics_consistent() {
        let inputs: Vec<u64> = (0..1000).collect();
        let (mut outputs, metrics) = modulo_count(&inputs, 4);
        outputs.sort_unstable();
        assert_eq!(outputs.len(), 10);
        assert!(outputs.iter().all(|&(_, c)| c == 100));
        assert_eq!(metrics.input_records, 1000);
        assert_eq!(metrics.shuffle_records, 1000);
        assert_eq!(metrics.reducers_used, 10);
        assert_eq!(metrics.max_reducer_input, 100);
        assert_eq!(metrics.reducer_work, 1000);
        assert_eq!(metrics.outputs, 10);
        assert!((metrics.replication_per_input() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn results_are_independent_of_thread_count() {
        let inputs: Vec<u64> = (0..500).map(|i| i * 7 % 113).collect();
        let (mut serial, _) = modulo_count(&inputs, 1);
        let (mut parallel, _) = modulo_count(&inputs, 8);
        serial.sort_unstable();
        parallel.sort_unstable();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn replication_is_counted_per_emission() {
        // Each input emits 3 pairs: communication cost is 3 per record.
        let mapper = |x: &u64, ctx: &mut MapContext<u64, u64>| {
            for i in 0..3 {
                ctx.emit(x + i, *x);
            }
        };
        let reducer = |_k: &u64, vs: &[u64], ctx: &mut ReduceContext<usize>| ctx.emit(vs.len());
        let inputs: Vec<u64> = (0..50).collect();
        let (_, metrics) = collect(
            &Round::new("job", mapper, reducer),
            &inputs,
            &EngineConfig::serial(),
        );
        assert_eq!(metrics.shuffle_records, 150);
        assert!((metrics.replication_per_input() - 3.0).abs() < 1e-12);
        assert_eq!(metrics.reducers_used, 52); // keys 0..=51
    }

    #[test]
    fn empty_input_produces_empty_output() {
        let inputs: Vec<u64> = Vec::new();
        let (outputs, metrics) = modulo_count(&inputs, 4);
        assert!(outputs.is_empty());
        assert_eq!(metrics.shuffle_records, 0);
        assert_eq!(metrics.shuffle_bytes, 0);
        assert_eq!(metrics.reducers_used, 0);
        assert_eq!(metrics.max_reducer_input, 0);
    }

    #[test]
    fn mapper_emitting_nothing_is_fine() {
        let mapper = |_x: &u64, _ctx: &mut MapContext<u64, u64>| {};
        let reducer = |_k: &u64, _vs: &[u64], ctx: &mut ReduceContext<u64>| ctx.emit(1);
        let inputs: Vec<u64> = (0..10).collect();
        let (outputs, metrics) = collect(
            &Round::new("job", mapper, reducer),
            &inputs,
            &EngineConfig::default(),
        );
        assert!(outputs.is_empty());
        assert_eq!(metrics.shuffle_records, 0);
        assert_eq!(metrics.reducers_used, 0);
    }

    #[test]
    fn shard_assignment_is_balanced_for_sequential_keys() {
        // Sequential integer keys are the common case for the paper's bucket
        // keys; the multiply-shift reduction must spread their hashes evenly.
        for threads in [2usize, 3, 7, 8] {
            let mut loads = vec![0usize; threads];
            let n = 10_000usize;
            for key in 0..n as u64 {
                loads[shard_for_hash(hash_of(&key), threads)] += 1;
            }
            let mean = n as f64 / threads as f64;
            let max = *loads.iter().max().unwrap() as f64;
            let min = *loads.iter().min().unwrap() as f64;
            assert!(
                max < mean * 1.15 && min > mean * 0.85,
                "threads={threads}: loads {loads:?} deviate from mean {mean}"
            );
        }
    }

    #[test]
    fn shard_for_hash_covers_the_full_range() {
        // The reduction must be able to reach every shard, including the last.
        let shards = 5;
        let mut seen = vec![false; shards];
        for hash in (0..u64::MAX).step_by(u64::MAX as usize / 64) {
            seen[shard_for_hash(hash, shards)] = true;
        }
        assert!(seen.iter().all(|&s| s), "unreached shards: {seen:?}");
        assert_eq!(shard_for_hash(u64::MAX, shards), shards - 1);
        assert_eq!(shard_for_hash(0, shards), 0);
    }

    #[test]
    fn partition_routing_refines_worker_routing() {
        // A key's partition, divided by the partitions per worker, is the
        // worker `shard_for_hash(hash, threads)` names: reducing partition
        // by partition keeps every key on its worker.
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut hashes = vec![0, u64::MAX];
        hashes.extend((0..200).map(|_| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        }));
        for &hash in &hashes {
            for threads in 1..=16usize {
                let worker = shard_for_hash(hash, threads);
                for per_worker in 1..=64usize {
                    assert_eq!(
                        shard_for_hash(hash, threads * per_worker) / per_worker,
                        worker,
                        "hash {hash:#x} threads {threads} per worker {per_worker}"
                    );
                }
            }
        }
    }

    #[test]
    fn reduce_passes_follow_the_budget() {
        let passes = |threads: usize, budget: usize| {
            EngineConfig::with_threads(threads)
                .memory_budget(budget)
                .reduce_passes()
        };
        assert_eq!(passes(1, 0), 16);
        assert_eq!(passes(8, 0), 16);
        // 64 KiB: one pass per worker from two threads up, the layout of an
        // engine that reduces a worker's keys all at once.
        assert_eq!(passes(1, 64 << 10), 4);
        assert_eq!(passes(2, 64 << 10), 1);
        assert_eq!(passes(8, 64 << 10), 1);
        // 12 fit, rounded down to a power of two.
        assert_eq!(passes(1, 12 * (16 << 10)), 8);
        assert_eq!(passes(2, 16 << 20), 16);
        assert_eq!(passes(4, 32 << 20), 16);
        assert_eq!(EngineConfig::with_threads(3).reduce_partitions(), 48);
    }

    #[test]
    fn vector_keys_work_as_reducer_identifiers() {
        // The paper's reducer keys are lists of bucket numbers.
        let mapper = |x: &u64, ctx: &mut MapContext<Vec<u32>, u64>| {
            ctx.emit(vec![(x % 3) as u32, (x % 5) as u32], *x);
        };
        let reducer = |k: &Vec<u32>, vs: &[u64], ctx: &mut ReduceContext<(Vec<u32>, usize)>| {
            ctx.emit((k.clone(), vs.len()));
        };
        let inputs: Vec<u64> = (0..150).collect();
        let (outputs, metrics) = collect(
            &Round::new("job", mapper, reducer),
            &inputs,
            &EngineConfig::with_threads(3),
        );
        assert_eq!(metrics.reducers_used, 15);
        assert_eq!(outputs.len(), 15);
        assert!(outputs.iter().all(|(_, c)| *c == 10));
    }

    /// Records, per fold, how many reducer calls had run and the keys the
    /// shard held.
    struct FoldRecorder {
        calls: Arc<AtomicUsize>,
        /// Folds so far, signalled to reducers waiting for the first.
        folded: Arc<(Mutex<usize>, Condvar)>,
        folds: Vec<(usize, Vec<u64>)>,
    }

    impl OutputSink<u64> for FoldRecorder {
        fn accept(&mut self, _key: u64) {
            panic!("the engine delivers through shards");
        }

        fn fold(&mut self, shard: Box<dyn SinkShard<u64>>) {
            let keys = shard
                .into_any()
                .downcast::<BufferShard<u64>>()
                .expect("the default shard");
            self.folds.push((self.calls.load(Ordering::SeqCst), keys.0));
            let (count, signal) = &*self.folded;
            *count.lock().expect("fold count poisoned") += 1;
            signal.notify_all();
        }
    }

    #[test]
    fn buckets_fold_in_order_while_later_buckets_still_reduce() {
        let inputs: Vec<u64> = (0..2_000).collect();
        for (threads, budget) in [(1, 0), (2, 0), (2, 64 << 10)] {
            let config = EngineConfig::with_threads(threads).memory_budget(budget);
            let partitions = config.reduce_partitions();
            let per_bucket = PARTITIONS_PER_WORKER / config.reduce_passes();
            let calls = Arc::new(AtomicUsize::new(0));
            let folded = Arc::new((Mutex::new(0), Condvar::new()));
            let (reduced, seen) = (Arc::clone(&calls), Arc::clone(&folded));
            // Keys of the last partition wait, until this deadline at most,
            // for the first fold, so the check below does not hang on
            // scheduling: a fold must be able to come first.
            let deadline = Instant::now() + Duration::from_secs(10);
            let reducer = move |key: &u64, _values: &[u64], ctx: &mut ReduceContext<u64>| {
                if shard_for_hash(hash_of(key), partitions) == partitions - 1 {
                    let (count, signal) = &*seen;
                    let wait = deadline.saturating_duration_since(Instant::now());
                    let count = count.lock().expect("fold count poisoned");
                    drop(signal.wait_timeout_while(count, wait, |folds| *folds == 0));
                }
                reduced.fetch_add(1, Ordering::SeqCst);
                ctx.emit(*key);
            };
            let mapper = |x: &u64, ctx: &mut MapContext<u64, u64>| ctx.emit(*x, *x);
            let mut sink = FoldRecorder {
                calls: Arc::clone(&calls),
                folded,
                folds: Vec::new(),
            };
            Round::new("folds", mapper, reducer).run(&inputs, &config, &mut sink);
            let label = format!("threads {threads}, budget {budget}");
            assert_eq!(calls.load(Ordering::SeqCst), inputs.len(), "{label}");
            assert_eq!(
                sink.folds.len(),
                threads * config.reduce_passes(),
                "one fold per bucket: {label}"
            );
            assert!(
                sink.folds[0].0 < inputs.len(),
                "the first bucket folds before the last key is reduced: {label}"
            );
            for (bucket, (_, keys)) in sink.folds.iter().enumerate() {
                for key in keys {
                    let partition = shard_for_hash(hash_of(key), partitions);
                    assert_eq!(partition / per_bucket, bucket, "bucket order: {label}");
                }
            }
            let delivered: usize = sink.folds.iter().map(|(_, keys)| keys.len()).sum();
            assert_eq!(delivered, inputs.len(), "{label}");
        }
    }
}
