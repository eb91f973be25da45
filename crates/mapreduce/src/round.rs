//! One map-reduce round, run with one call.
//!
//! A [`Round`] couples a [`Mapper`] and a [`Reducer`] with a record weigher
//! that prices each shuffled pair in bytes. [`Round::run`] executes it over a
//! borrowed input slice, streams the reducer outputs into an
//! [`OutputSink`] and returns the round's measured [`JobMetrics`].
//!
//! The dataflow of one round is exactly the paper's (Section 1.2): map every
//! input record to a multiset of `(key, value)` pairs, group by key, run one
//! reducer invocation per distinct key. Every emitted pair is shipped, so a
//! mapper that must reach a reducer once emits once (the multiway triangle
//! join sends each edge to its `3b − 2` distinct reducers that way).
//!
//! A multi-round algorithm is successive calls: collect one round's outputs
//! (a [`CollectSink`](crate::CollectSink)), reshape them in plain code, and
//! pass them as the next round's inputs. The paper's two-round cascade of
//! 2-way joins (`subgraph_core::triangles::cascade`) is written that way.
//!
//! Every round runs on one executor (see `docs/ENGINE.md`, "The round
//! executor"): map tasks serialize their emissions into one byte arena per
//! reduce bucket, the coordinator only moves arena ownership, and reduce
//! tasks decode, group and reduce their buckets one at a time, in parallel. Keys and values therefore carry
//! the [`ArenaCodec`] encoding, which [`Round::new`] requires.
//!
//! ```
//! use subgraph_mapreduce::{CollectSink, EngineConfig, MapContext, ReduceContext, Round};
//!
//! // Two rounds: count word lengths, then histogram the counts.
//! let words = vec!["map", "reduce", "group", "shuffle", "sort"];
//! let count_round = Round::new(
//!     "count",
//!     |w: &&str, ctx: &mut MapContext<usize, u64>| ctx.emit(w.len(), 1),
//!     |len: &usize, ones: &[u64], ctx: &mut ReduceContext<(usize, u64)>| {
//!         ctx.emit((*len, ones.iter().sum()))
//!     },
//! );
//! let histogram_round = Round::new(
//!     "histogram",
//!     |&(_, count): &(usize, u64), ctx: &mut MapContext<u64, u64>| ctx.emit(count, 1),
//!     |count: &u64, ones: &[u64], ctx: &mut ReduceContext<(u64, u64)>| {
//!         ctx.emit((*count, ones.iter().sum()))
//!     },
//! );
//! let config = EngineConfig::serial();
//! let mut counts = CollectSink::new();
//! let first = count_round.run(&words, &config, &mut counts);
//! assert_eq!(first.shuffle_records, words.len());
//! let mut histogram = CollectSink::new();
//! let second = histogram_round.run(&counts.into_items(), &config, &mut histogram);
//! assert_eq!(first.outputs, second.input_records);
//! // Lengths 3, 6, 5, 7, 4: five lengths seen once each.
//! assert_eq!(histogram.into_items(), vec![(1, 5)]);
//! ```

use crate::arena::execute_round;
use crate::engine::EngineConfig;
use crate::metrics::JobMetrics;
use crate::sink::OutputSink;
use crate::task::{Mapper, Reducer};
use std::hash::Hash;
use std::mem::size_of;
use subgraph_codec::ArenaCodec;

/// A boxed per-record byte weigher (key + value → shuffled payload bytes).
type RecordWeigher<'a, K, V> = Box<dyn Fn(&K, &V) -> usize + Sync + 'a>;

/// One map-reduce round: mapper, reducer, and the weigher that prices one
/// shuffled record in bytes.
pub struct Round<'a, I, K, V, O> {
    name: String,
    pub(crate) mapper: Box<dyn Mapper<I, K, V> + 'a>,
    pub(crate) reducer: Box<dyn Reducer<K, V, O> + 'a>,
    pub(crate) record_bytes: RecordWeigher<'a, K, V>,
}

impl<'a, I, K, V, O> Round<'a, I, K, V, O>
where
    I: Sync,
    K: Hash + Eq + Ord + Send + ArenaCodec,
    V: Send + ArenaCodec,
    O: Send,
{
    /// A round with the default record weigher
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
            record_bytes: Box::new(|_k, _v| size_of::<K>() + size_of::<V>()),
        }
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

    /// Runs the round over the borrowed `inputs` — callers pass
    /// `graph.edges()` (or any slice) without cloning it — and streams the
    /// reducer outputs into `sink`: each reduce bucket fills a private
    /// [`crate::SinkShard`] as its reducers emit, and the shards are folded
    /// back in bucket order as soon as the buckets ahead of them are, so the
    /// sink receives one order per input and thread count, and
    /// constant-memory sinks (e.g. [`crate::CountSink`]) make the output path
    /// O(1) in the result size. Returns the round's measured metrics.
    pub fn run(
        &self,
        inputs: &[I],
        config: &EngineConfig,
        sink: &mut dyn OutputSink<O>,
    ) -> JobMetrics
    where
        O: 'static,
    {
        execute_round(inputs, self, config, sink)
    }
}

/// Measured metrics of one executed round, under the round's name.
#[derive(Clone, Debug, PartialEq)]
pub struct RoundMetrics {
    /// The round's name (as given to [`Round::new`]).
    pub name: String,
    /// The round's measured cost metrics.
    pub metrics: JobMetrics,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{collect, Job};
    use crate::task::{MapContext, ReduceContext};
    use std::time::Duration;

    #[test]
    fn engine_products_are_send_and_sync() {
        // A long-lived service shares the engine configuration and job
        // reports across worker threads; keep them thread-clean.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::EngineConfig>();
        assert_send_sync::<RoundMetrics>();
        assert_send_sync::<crate::JobMetrics>();
        assert_send_sync::<crate::CountSink>();
        assert_send_sync::<crate::CollectSink<u64>>();
    }

    /// Word-count style round: one pair per input, ten keys.
    fn counting_round<'a>() -> Round<'a, u64, u64, u64, (u64, u64)> {
        Round::new(
            "count",
            |x: &u64, ctx: &mut MapContext<u64, u64>| ctx.emit(x % 10, 1),
            |k: &u64, vs: &[u64], ctx: &mut ReduceContext<(u64, u64)>| {
                ctx.add_work(vs.len() as u64);
                ctx.emit((*k, vs.iter().sum()));
            },
        )
    }

    #[test]
    fn deterministic_runs_repeat_exactly() {
        let inputs: Vec<u64> = (0..400).map(|i| i * 17 % 101).collect();
        let config = EngineConfig::with_threads(3);
        let round = counting_round();
        let run = || collect(&round, &inputs, &config).0;
        assert_eq!(run(), run());
    }

    #[test]
    fn default_record_weigher_prices_fixed_size_records() {
        let inputs: Vec<u64> = (0..50).collect();
        let (_, metrics) = collect(&counting_round(), &inputs, &EngineConfig::serial());
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
        let (_, metrics) = collect(&round, &inputs, &EngineConfig::serial());
        assert_eq!(metrics.shuffle_bytes, metrics.shuffle_records as u64 * 16);
    }

    #[test]
    fn run_with_sink_collect_matches_run_exactly() {
        // A round's outputs and every counter are a function of the input
        // and the thread count: the same round run twice into fresh
        // collectors agrees record for record and counter for counter, at
        // every thread count.
        let inputs: Vec<u64> = (0..900).map(|i| i * 31 % 257).collect();
        for threads in [1usize, 2, 8] {
            let config = EngineConfig::with_threads(threads);
            let round = counting_round();
            let (outputs, metrics) = collect(&round, &inputs, &config);
            let (again, again_metrics) = collect(&round, &inputs, &config);
            assert_eq!(again, outputs, "threads={threads}");
            assert_eq!(
                again_metrics.without_timings(),
                metrics.without_timings(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn count_sink_counts_without_changing_any_metric() {
        let inputs: Vec<u64> = (0..1200).map(|i| i * 7 % 401).collect();
        for threads in [1usize, 3, 8] {
            let config = EngineConfig::with_threads(threads);
            let round = counting_round();
            let (outputs, metrics) = collect(&round, &inputs, &config);
            let mut counter = crate::sink::CountSink::new();
            let counted = round.run(&inputs, &config, &mut counter);
            assert_eq!(counter.count(), outputs.len(), "threads={threads}");
            // Byte-identical metrics: the output path never affects what the
            // mappers emit or the shuffle ships.
            assert_eq!(
                counted.without_timings(),
                metrics.without_timings(),
                "threads={threads}"
            );
            assert_eq!(counted.outputs, outputs.len());
        }
    }

    #[test]
    fn deterministic_sink_delivery_preserves_the_exact_output_order() {
        // FnSink callbacks see records in the order a collector stores them.
        let inputs: Vec<u64> = (0..500).map(|i| i * 13 % 149).collect();
        for threads in [2usize, 8] {
            let config = EngineConfig::with_threads(threads);
            let round = counting_round();
            let (outputs, _) = collect(&round, &inputs, &config);
            let mut seen = Vec::new();
            let delivered = {
                let mut sink = crate::sink::FnSink::new(|pair: (u64, u64)| seen.push(pair));
                round.run(&inputs, &config, &mut sink);
                sink.count()
            };
            assert_eq!(delivered, outputs.len());
            assert_eq!(seen, outputs, "threads={threads}");
        }
    }

    fn sum_by_key_mod_37(x: &u64) -> Vec<(u64, u64)> {
        vec![(x % 37, *x)]
    }

    fn emit_sum(key: &u64, values: &[u64]) -> Vec<(u64, u64)> {
        vec![(*key, values.iter().sum())]
    }

    /// A summing job over 37 keys.
    fn sum_job() -> Job<u64, u64, u64, (u64, u64)> {
        Job {
            map: sum_by_key_mod_37,
            reduce: emit_sum,
            weigh: |_, _| 16,
        }
    }

    #[test]
    fn executor_matches_the_reference_outputs_and_counters() {
        // Outputs in the reference's order and every non-timing counter.
        let inputs: Vec<u64> = (0..3000).map(|i| i * 29 % 613).collect();
        for threads in [1usize, 2, 8] {
            let job = sum_job();
            let config = EngineConfig::with_threads(threads);
            let (expected, expected_metrics) = job.reference(&inputs, config.reduce_partitions());
            let (outputs, metrics) = collect(&job.round("sum"), &inputs, &config);
            assert_eq!(
                metrics.without_timings(),
                expected_metrics,
                "threads={threads}"
            );
            assert_eq!(outputs, expected, "threads={threads}");
        }
    }

    fn distinct_keys(x: &u64) -> Vec<(u64, u64)> {
        vec![(*x, 1)]
    }

    /// Strips the timings and the spill counters so budgeted and unbudgeted
    /// runs can be compared on everything else — the cross-budget parity
    /// contract.
    fn without_spill_counters(metrics: &JobMetrics) -> JobMetrics {
        JobMetrics {
            spilled_bytes: 0,
            spill_runs: 0,
            ..metrics.without_timings()
        }
    }

    #[test]
    fn rounds_spill_under_a_budget_and_match_the_reference() {
        // ~20k distinct keys dwarf a 64 KiB budget: the records must spill
        // and merge back without changing an output or a counter.
        let inputs: Vec<u64> = (0..100_000).map(|i| i * 37 % 20_011).collect();
        let job = Job {
            map: distinct_keys,
            ..sum_job()
        };
        for threads in [2usize, 4] {
            let config = EngineConfig::with_threads(threads).memory_budget(64 << 10);
            let (expected, expected_metrics) = job.reference(&inputs, config.reduce_partitions());
            let (outputs, metrics) = collect(&job.round("sum"), &inputs, &config);
            assert!(metrics.spilled_bytes > 0 && metrics.spill_runs > 0);
            assert_eq!(outputs, expected, "threads={threads}");
            assert_eq!(
                without_spill_counters(&metrics),
                expected_metrics,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn spill_counters_are_zero_without_a_budget() {
        let inputs: Vec<u64> = (0..5000).map(|i| i * 31 % 997).collect();
        let (_, metrics) = collect(
            &sum_job().round("sum"),
            &inputs,
            &EngineConfig::with_threads(4),
        );
        assert_eq!(metrics.spilled_bytes, 0);
        assert_eq!(metrics.spill_runs, 0);
        assert_eq!(metrics.spill_read_secs, Duration::ZERO);
    }

    #[test]
    fn outputs_are_byte_identical_across_memory_budgets() {
        // ~100k records (~half a MiB of arena bytes) dwarf the forced 64 KiB
        // budget, so the smallest budget spills several epochs; the contract
        // is byte-identical outputs and counters (spill counters aside) at
        // every budget.
        let inputs: Vec<u64> = (0..100_000).map(|i| i * 37 % 7919).collect();
        let round = sum_job().round("sum");
        for threads in [2usize, 4] {
            let unbounded = EngineConfig::with_threads(threads);
            let (base_out, base_metrics) = collect(&round, &inputs, &unbounded);
            assert_eq!(base_metrics.spilled_bytes, 0);
            for budget in [64 << 10, 1 << 20] {
                let config = unbounded.clone().memory_budget(budget);
                let (outputs, metrics) = collect(&round, &inputs, &config);
                assert_eq!(outputs, base_out, "threads={threads} budget={budget}");
                assert_eq!(
                    without_spill_counters(&metrics),
                    without_spill_counters(&base_metrics),
                    "threads={threads} budget={budget}"
                );
                if budget == 64 << 10 {
                    assert!(
                        metrics.spilled_bytes > 0,
                        "a 64 KiB budget under ~500 KiB of records must spill"
                    );
                    assert!(metrics.spill_runs > 0);
                }
            }
        }
    }

    /// The hash-once invariant is asserted inside every map and reduce task
    /// in debug builds; driving the engine across thread counts exercises
    /// those assertions.
    #[test]
    fn hash_once_invariant_holds_at_every_thread_count() {
        let inputs: Vec<u64> = (0..700).map(|i| i * 13 % 211).collect();
        for threads in [1usize, 2, 8] {
            let (outputs, metrics) = collect(
                &counting_round(),
                &inputs,
                &EngineConfig::with_threads(threads),
            );
            assert!(!outputs.is_empty());
            assert_eq!(metrics.shuffle_records, inputs.len());
        }
    }
}
