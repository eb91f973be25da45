//! Engine configuration and shard assignment.
//!
//! The pre-pipeline single-round `run_job` entry point is gone: build a
//! [`crate::pipeline::Round`] and run it through a one-round
//! [`crate::pipeline::Pipeline`] instead (`Pipeline::new().round(..).run(..)`
//! or `run_with_sink(..)` for streaming output delivery).

use crate::pool::WorkerPool;
use std::path::PathBuf;
use std::sync::Arc;

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Number of worker threads for both the map and the reduce phase.
    /// Defaults to the number of available CPUs (at least 1).
    pub num_threads: usize,
    /// If true (the default), every reduce worker sorts its keys before
    /// invoking the reducer, so reducer invocation order — and therefore the
    /// concatenated output order — is a pure function of the input and the
    /// thread count. If false, each shard's keys are visited in hash-map
    /// iteration order: the *set* of outputs and all [`crate::JobMetrics`] counters
    /// are unchanged, but the output order is arbitrary (it follows the
    /// engine's FxHash grouping tables, so no ordering is guaranteed across
    /// runs or releases), so only opt out when the consumer sorts or
    /// aggregates the output anyway and wants to skip the `O(r log r)`
    /// per-shard sort.
    pub deterministic: bool,
    /// If true (the default), rounds with an attached
    /// [`crate::Combiner`] pre-aggregate their map output per shard before the
    /// shuffle. Disable to measure the raw communication cost of a pipeline;
    /// the reducer outputs are identical either way (that is the combiner
    /// contract, and the property tests pin it).
    pub use_combiners: bool,
    /// Resident-memory budget in bytes for a round's in-flight arena records
    /// (0, the default, means unbounded — never touch disk). When the sealed
    /// arena chunks of a round cross this budget, map workers spill them to
    /// run files under [`EngineConfig::spill_dir`] and the reduce phase
    /// streams them back, so peak RSS tracks the budget instead of the
    /// workload. Combining rounds spill their combined records the same way.
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
            deterministic: true,
            use_combiners: true,
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

    /// Enables or disables map-side combiners (enabled by default).
    pub fn combiners(mut self, enabled: bool) -> Self {
        self.use_combiners = enabled;
        self
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
}

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
    use crate::pipeline::{Pipeline, Round};
    use crate::task::{MapContext, Mapper, ReduceContext, Reducer};
    use crate::ArenaCodec;
    use std::hash::Hash;

    /// One-round pipeline helper with the shape of the old `run_job` entry
    /// point, so these engine-level tests stay focused on the dataflow.
    fn run_round<I, K, V, O>(
        inputs: &[I],
        mapper: impl Mapper<I, K, V>,
        reducer: impl Reducer<K, V, O>,
        config: &EngineConfig,
    ) -> (Vec<O>, JobMetrics)
    where
        I: Sync + Send + Clone + 'static,
        K: Hash + Eq + Ord + Send + ArenaCodec,
        V: Send + ArenaCodec,
        O: Send + Clone + 'static,
    {
        let (outputs, report) = Pipeline::new()
            .round(Round::new("job", mapper, reducer))
            .run(inputs, config);
        let metrics = report.rounds.into_iter().next().expect("one round").metrics;
        (outputs, metrics)
    }

    /// Word-count style job: count occurrences of each number modulo 10.
    fn modulo_count(inputs: &[u64], threads: usize) -> (Vec<(u64, usize)>, JobMetrics) {
        let mapper = |x: &u64, ctx: &mut MapContext<u64, u64>| ctx.emit(x % 10, *x);
        let reducer = |k: &u64, vs: &[u64], ctx: &mut ReduceContext<(u64, usize)>| {
            ctx.add_work(vs.len() as u64);
            ctx.emit((*k, vs.len()));
        };
        run_round(
            inputs,
            mapper,
            reducer,
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
        assert_eq!(metrics.key_value_pairs, 1000);
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
        let (_, metrics) = run_round(&inputs, mapper, reducer, &EngineConfig::serial());
        assert_eq!(metrics.key_value_pairs, 150);
        assert!((metrics.replication_per_input() - 3.0).abs() < 1e-12);
        assert_eq!(metrics.reducers_used, 52); // keys 0..=51
    }

    #[test]
    fn empty_input_produces_empty_output() {
        let inputs: Vec<u64> = Vec::new();
        let (outputs, metrics) = modulo_count(&inputs, 4);
        assert!(outputs.is_empty());
        assert_eq!(metrics.key_value_pairs, 0);
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
        let (outputs, metrics) = run_round(&inputs, mapper, reducer, &EngineConfig::default());
        assert!(outputs.is_empty());
        assert_eq!(metrics.key_value_pairs, 0);
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
    fn deterministic_flag_controls_output_order_not_content() {
        let inputs: Vec<u64> = (0..300).map(|i| i * 13 % 97).collect();
        let run = |deterministic: bool| {
            let mapper = |x: &u64, ctx: &mut MapContext<u64, u64>| ctx.emit(x % 16, *x);
            let reducer = |k: &u64, vs: &[u64], ctx: &mut ReduceContext<(u64, usize)>| {
                ctx.emit((*k, vs.len()));
            };
            let config = EngineConfig {
                num_threads: 3,
                deterministic,
                ..EngineConfig::default()
            };
            run_round(&inputs, mapper, reducer, &config)
        };
        // Deterministic runs repeat exactly, in order.
        let (first, metrics_a) = run(true);
        let (second, metrics_b) = run(true);
        assert_eq!(first, second);
        // A non-deterministic run produces the same output *set* and metrics.
        let (mut relaxed, metrics_c) = run(false);
        let mut sorted_first = first.clone();
        sorted_first.sort_unstable();
        relaxed.sort_unstable();
        assert_eq!(sorted_first, relaxed);
        assert_eq!(metrics_a.key_value_pairs, metrics_c.key_value_pairs);
        assert_eq!(metrics_a.reducers_used, metrics_c.reducers_used);
        assert_eq!(metrics_b.outputs, metrics_c.outputs);
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
        let (outputs, metrics) =
            run_round(&inputs, mapper, reducer, &EngineConfig::with_threads(3));
        assert_eq!(metrics.reducers_used, 15);
        assert_eq!(outputs.len(), 15);
        assert!(outputs.iter().all(|(_, c)| *c == 10));
    }
}
