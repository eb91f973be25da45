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
//! Every round runs on one executor (see `docs/ENGINE.md`, "The round
//! executor"): map tasks serialize their emissions into one byte arena per
//! reduce bucket, the coordinator only moves arena ownership, and reduce
//! tasks decode, group and reduce their buckets one at a time, in parallel. Keys and values therefore carry
//! the [`ArenaCodec`] encoding, which [`Round::new`] requires.
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

use crate::arena::execute_round;
use crate::engine::EngineConfig;
use crate::metrics::JobMetrics;
use crate::sink::{CollectSink, OutputSink};
use crate::task::{Combiner, Mapper, Reducer};
use std::hash::Hash;
use std::mem::size_of;
use subgraph_codec::ArenaCodec;

/// A boxed per-record byte weigher (key + value → shuffled payload bytes).
type RecordWeigher<'a, K, V> = Box<dyn Fn(&K, &V) -> usize + Sync + 'a>;

/// One map-reduce round of a [`Pipeline`]: mapper, reducer, optional map-side
/// combiner, and the weigher that prices one shuffled record in bytes.
pub struct Round<'a, I, K, V, O> {
    name: String,
    pub(crate) mapper: Box<dyn Mapper<I, K, V> + 'a>,
    pub(crate) reducer: Box<dyn Reducer<K, V, O> + 'a>,
    pub(crate) combiner: Option<Box<dyn Combiner<K, V> + 'a>>,
    pub(crate) record_bytes: RecordWeigher<'a, K, V>,
}

impl<'a, I, K, V, O> Round<'a, I, K, V, O>
where
    I: Sync,
    K: Hash + Eq + Ord + Send + ArenaCodec,
    V: Send + ArenaCodec,
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
        }
    }

    /// Attaches a map-side combiner (see [`Combiner`] for the contract).
    pub fn combiner(mut self, combiner: impl Combiner<K, V> + 'a) -> Self {
        self.combiner = Some(Box::new(combiner));
        self
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
}

/// What flows into a pipeline stage: the caller's borrowed input slice (for
/// the first stage) or an owned intermediate produced by an earlier round.
/// This is what lets [`Pipeline::run`] borrow its inputs — the first round
/// maps straight off the caller's slice without cloning it.
enum StageInput<'s, I> {
    Borrowed(&'s [I]),
    Owned(Vec<I>),
}

impl<I> StageInput<'_, I> {
    fn as_slice(&self) -> &[I] {
        match self {
            StageInput::Borrowed(slice) => slice,
            StageInput::Owned(vec) => vec,
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
        }
    }
}

/// Where a pipeline's final outputs go: back to the caller as a `Vec`
/// (legacy), or streamed into an [`OutputSink`] as the final round's reduce
/// buckets finish.
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
        K: Hash + Eq + Ord + Send + ArenaCodec + 'a,
        V: Send + ArenaCodec + 'a,
        O: Send + 'a + 'static,
    {
        let prev = self.stages;
        Pipeline {
            stages: Box::new(move |inputs, config, report, destination| {
                let intermediate = prev(inputs, config, report, Destination::Materialize)
                    .expect("a materialize destination always yields outputs");
                let inputs = intermediate.as_slice();
                let name = round.name.clone();
                match destination {
                    Destination::Materialize => {
                        let mut collected = CollectSink::new();
                        let metrics = execute_round(inputs, &round, config, &mut collected);
                        report.rounds.push(RoundMetrics { name, metrics });
                        Some(StageInput::Owned(collected.into_items()))
                    }
                    Destination::Stream(sink) => {
                        // The final round: reduce tasks feed the sink's
                        // shards directly; nothing is materialized here.
                        let metrics = execute_round(inputs, &round, config, sink);
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
    /// slice) without cloning it per run. This is a thin wrapper over
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
    /// bucket fills a private [`crate::SinkShard`] as its reducers emit, and
    /// the shards are folded back in bucket order as soon as the buckets
    /// ahead of them are — so the sink receives the exact order
    /// [`Pipeline::run`] would have returned, and constant-memory sinks (e.g.
    /// [`crate::CountSink`]) make the output path O(1) in the result size.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{CombineFn, Job};
    use crate::task::{MapContext, ReduceContext};
    use std::time::Duration;

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

    fn sum_by_key_mod_37(x: &u64) -> Vec<(u64, u64)> {
        vec![(x % 37, *x)]
    }

    fn sum_values(_key: &u64, values: Vec<u64>) -> Vec<u64> {
        vec![values.iter().sum()]
    }

    fn emit_sum(key: &u64, values: &[u64]) -> Vec<(u64, u64)> {
        vec![(*key, values.iter().sum())]
    }

    /// A summing job over 37 keys, with or without its combiner.
    fn sum_job(combine: bool) -> Job<u64, u64, u64, (u64, u64)> {
        Job {
            map: sum_by_key_mod_37,
            combine: combine.then_some(sum_values as CombineFn<u64, u64>),
            reduce: emit_sum,
            weigh: |_, _| 16,
        }
    }

    #[test]
    fn executor_matches_the_reference_outputs_and_counters() {
        // Outputs in the reference's order and every non-timing counter.
        let inputs: Vec<u64> = (0..3000).map(|i| i * 29 % 613).collect();
        for threads in [1usize, 2, 8] {
            for combine in [true, false] {
                let job = sum_job(combine);
                let config = EngineConfig::with_threads(threads);
                let (expected, expected_metrics) =
                    job.reference(&inputs, threads, config.reduce_partitions(), true);
                let (outputs, report) = Pipeline::new()
                    .round(job.round("sum"))
                    .run(&inputs, &config);
                let context = format!("threads={threads} combine={combine}");
                assert_eq!(
                    report.rounds[0].metrics.without_timings(),
                    expected_metrics,
                    "{context}"
                );
                assert_eq!(outputs, expected, "{context}");
            }
        }
    }

    fn distinct_keys(x: &u64) -> Vec<(u64, u64)> {
        vec![(*x, 1)]
    }

    #[test]
    fn combining_rounds_spill_under_a_budget_and_stay_identical() {
        // ~20k distinct keys per map shard leave the summing combiner little
        // to merge, so its output still dwarfs a 64 KiB budget: the combined
        // records must spill and merge back without changing an output or a
        // counter.
        let inputs: Vec<u64> = (0..100_000).map(|i| i * 37 % 20_011).collect();
        let job = Job {
            map: distinct_keys,
            ..sum_job(true)
        };
        for threads in [2usize, 4] {
            let config = EngineConfig::with_threads(threads).memory_budget(64 << 10);
            let (expected, expected_metrics) =
                job.reference(&inputs, threads, config.reduce_partitions(), true);
            let (outputs, report) = Pipeline::new()
                .round(job.round("sum"))
                .run(&inputs, &config);
            let metrics = &report.rounds[0].metrics;
            assert!(metrics.combiner_output_records < metrics.combiner_input_records);
            assert!(metrics.spilled_bytes > 0 && metrics.spill_runs > 0);
            assert_eq!(outputs, expected, "threads={threads}");
            assert_eq!(
                without_spill_counters(counters_of(&report)),
                vec![("sum".to_string(), expected_metrics)],
                "threads={threads}"
            );
        }
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
    fn spill_counters_are_zero_without_a_budget() {
        let inputs: Vec<u64> = (0..5000).map(|i| i * 31 % 997).collect();
        let (_, report) = Pipeline::new()
            .round(sum_job(false).round("sum"))
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
        // every budget.
        let inputs: Vec<u64> = (0..100_000).map(|i| i * 37 % 7919).collect();
        for threads in [2usize, 4] {
            let unbounded = EngineConfig::with_threads(threads);
            let (base_out, base_report) = Pipeline::new()
                .round(sum_job(false).round("sum"))
                .run(&inputs, &unbounded);
            assert_eq!(base_report.rounds[0].metrics.spilled_bytes, 0);
            for budget in [64 << 10, 1 << 20] {
                let config = unbounded.clone().memory_budget(budget);
                let (outputs, report) = Pipeline::new()
                    .round(sum_job(false).round("sum"))
                    .run(&inputs, &config);
                assert_eq!(outputs, base_out, "threads={threads} budget={budget}");
                assert_eq!(
                    without_spill_counters(counters_of(&report)),
                    without_spill_counters(counters_of(&base_report)),
                    "threads={threads} budget={budget}"
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

    /// The hash-once invariant is asserted inside every map and reduce task
    /// in debug builds; driving the engine with and without a combiner across
    /// thread counts exercises those assertions.
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
