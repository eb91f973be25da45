//! A single-threaded reference executor for one round: the oracle the
//! engine's parity tests compare against. Test-only, and written against the
//! public API alone, so `tests/pool_parity.rs` compiles the same file.
//!
//! A [`Job`] is a round written as plain functions. [`Job::round`] builds the
//! engine [`Round`]; [`Job::reference`] runs the job the simplest way that
//! meets the engine's contract: map each logical shard
//! (`len.div_ceil(threads)` records), combine per shard and key, group
//! everything in one `BTreeMap`, and reduce the keys in the order a
//! deterministic engine run delivers them — by reduce shard
//! ([`shard_for_hash`]), then by key.

use crate::{hash_of, shard_for_hash, ArenaCodec, JobMetrics, MapContext, ReduceContext, Round};
use std::collections::BTreeMap;
use std::hash::Hash;

/// A combiner as a plain function.
pub type CombineFn<K, V> = fn(&K, Vec<V>) -> Vec<V>;

/// One round as plain functions. The engine round reports each reducer's
/// input size as its work.
pub struct Job<I, K, V, O> {
    pub map: fn(&I) -> Vec<(K, V)>,
    pub combine: Option<CombineFn<K, V>>,
    pub reduce: fn(&K, &[V]) -> Vec<O>,
    pub weigh: fn(&K, &V) -> usize,
}

impl<I, K, V, O> Job<I, K, V, O>
where
    I: Sync + 'static,
    K: Hash + Eq + Ord + Clone + Send + ArenaCodec + 'static,
    V: Send + ArenaCodec + 'static,
    O: Send + 'static,
{
    /// The job as an engine round.
    pub fn round(&self, name: &str) -> Round<'static, I, K, V, O> {
        let (map, reduce) = (self.map, self.reduce);
        let round = Round::new(
            name,
            move |input: &I, ctx: &mut MapContext<K, V>| {
                for (key, value) in map(input) {
                    ctx.emit(key, value);
                }
            },
            move |key: &K, values: &[V], ctx: &mut ReduceContext<O>| {
                ctx.add_work(values.len() as u64);
                for output in reduce(key, values) {
                    ctx.emit(output);
                }
            },
        )
        .record_bytes(self.weigh);
        match self.combine {
            Some(combine) => round.combiner(combine),
            None => round,
        }
    }

    /// Runs the job as the engine would at `threads` shards: the outputs in
    /// a deterministic run's order, and the counters the engine must report
    /// (timings and spill counters zero).
    pub fn reference(
        &self,
        inputs: &[I],
        threads: usize,
        use_combiners: bool,
    ) -> (Vec<O>, JobMetrics) {
        let combine = self.combine.filter(|_| use_combiners);
        let mut metrics = JobMetrics {
            input_records: inputs.len(),
            ..JobMetrics::default()
        };
        let mut grouped: BTreeMap<K, Vec<V>> = BTreeMap::new();
        let mut encoded = Vec::new();
        for shard in inputs.chunks(inputs.len().div_ceil(threads).max(1)) {
            let pairs: Vec<(K, V)> = shard.iter().flat_map(self.map).collect();
            metrics.key_value_pairs += pairs.len();
            let shipped: Vec<(K, V)> = match combine {
                None => pairs,
                Some(combine) => {
                    let mut groups: BTreeMap<K, Vec<V>> = BTreeMap::new();
                    for (key, value) in pairs {
                        groups.entry(key).or_default().push(value);
                    }
                    let mut kept = Vec::new();
                    for (key, values) in groups {
                        for value in combine(&key, values) {
                            kept.push((key.clone(), value));
                        }
                    }
                    kept
                }
            };
            for (key, value) in shipped {
                metrics.shuffle_records += 1;
                metrics.shuffle_bytes += (self.weigh)(&key, &value) as u64;
                encoded.clear();
                key.encode(&mut encoded);
                value.encode(&mut encoded);
                metrics.wire_bytes += encoded.len() as u64;
                grouped.entry(key).or_default().push(value);
            }
        }
        if combine.is_some() {
            metrics.combiner_input_records = metrics.key_value_pairs;
            metrics.combiner_output_records = metrics.shuffle_records;
        }
        // The map iterates keys in order; a stable sort by reduce shard
        // yields (shard, key) order.
        let mut groups: Vec<(K, Vec<V>)> = grouped.into_iter().collect();
        groups.sort_by_key(|(key, _)| shard_for_hash(hash_of(key), threads.max(1)));
        let mut outputs = Vec::new();
        for (key, values) in &groups {
            metrics.reducers_used += 1;
            metrics.max_reducer_input = metrics.max_reducer_input.max(values.len());
            metrics.reducer_work += values.len() as u64;
            outputs.extend((self.reduce)(key, values));
        }
        metrics.outputs = outputs.len();
        (outputs, metrics)
    }
}
