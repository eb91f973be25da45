//! Cost metrics collected while running a single map-reduce round.

use std::time::Duration;

/// Everything the paper's cost model talks about, measured on an actual run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JobMetrics {
    /// Number of input records fed to the mappers (for the paper's algorithms:
    /// the number of edges `m` of the data graph).
    pub input_records: usize,
    /// Total key-value pairs emitted by all mappers, *before* any map-side
    /// combining — the paper's **communication cost** (Section 1.2) for rounds
    /// without a combiner.
    pub key_value_pairs: usize,
    /// Key-value pairs fed into the map-side combiner (equals
    /// [`JobMetrics::key_value_pairs`] when a combiner ran, 0 otherwise).
    pub combiner_input_records: usize,
    /// Key-value pairs left after map-side combining (0 when no combiner ran).
    /// Always `<= combiner_input_records`.
    pub combiner_output_records: usize,
    /// Key-value pairs actually shipped through the shuffle: the combiner
    /// output when a combiner ran, the mapper emissions otherwise. This is the
    /// communication cost the cluster would really pay.
    pub shuffle_records: usize,
    /// Total payload bytes of the shuffled records, as measured by the round's
    /// record weigher (per-record key + value bytes).
    pub shuffle_bytes: u64,
    /// Encoded bytes the shuffle really carried through the exchange: the
    /// summed [`subgraph_codec::ArenaCodec`] lengths of every shipped record,
    /// resident or spilled. Unlike the logical [`JobMetrics::shuffle_bytes`]
    /// this follows the wire encoding (varints, reducer-index keys).
    pub wire_bytes: u64,
    /// Number of distinct keys that received at least one value, i.e. the
    /// number of reducers actually executed. The paper calls this the "number
    /// of reducers"; with the hash-ordered scheme of Section 2.3 it is much
    /// smaller than the number of possible keys.
    pub reducers_used: usize,
    /// Largest input (value count) handled by any single reducer — the skew
    /// indicator behind "the curse of the last reducer".
    pub max_reducer_input: usize,
    /// Total computation-cost units reported by the reducers via
    /// [`crate::ReduceContext::add_work`].
    pub reducer_work: u64,
    /// Total number of output records emitted by the reducers.
    pub outputs: usize,
    /// Wall-clock time of the map phase (mapping, combining, and encoding
    /// each record into its reduce shard's arena).
    pub map_time: Duration,
    /// Wall-clock time of the exchange: the coordinator handing each map
    /// worker's buckets to their reduce workers (pure ownership moves —
    /// grouping happens on the reduce workers and is part of
    /// [`JobMetrics::reduce_time`]).
    pub shuffle_time: Duration,
    /// Wall-clock time of the reduce phase (per-worker grouping, key sorting
    /// and reducer invocations).
    pub reduce_time: Duration,
    /// Wall-clock time the coordinator spent folding the finished worker
    /// shards back into the output sink ([`crate::sink::OutputSink::fold`]),
    /// after the reduce phase: for a sink whose shards did their work on the
    /// reduce workers this is a hand-over, for a buffering shard it is the
    /// whole serial replay. A phase of its own, outside
    /// [`JobMetrics::reduce_time`].
    pub sink_fold_time: Duration,
    /// Payload bytes of sealed arena chunks written to spill run files when a
    /// [`crate::EngineConfig::memory_budget`] is in force. Exactly 0 when no
    /// spill occurred (the unbudgeted in-memory path never touches disk).
    pub spilled_bytes: u64,
    /// Number of spill run files written (one per map shard × reduce shard ×
    /// spill epoch that had sealed chunks). Exactly 0 when no spill occurred.
    pub spill_runs: usize,
    /// Critical-path wall time any single reduce worker spent reading spilled
    /// runs back from disk. This is a slice of an existing phase
    /// ([`JobMetrics::reduce_time`]), not an additional one —
    /// [`JobMetrics::total_time`] does not add it. Exactly zero when no spill
    /// occurred.
    pub spill_read_secs: Duration,
}

impl JobMetrics {
    /// Communication cost per input record — the quantity the paper's
    /// per-edge replication formulas (e.g. `b`, `3b − 2`, `3b/2`) predict.
    pub fn replication_per_input(&self) -> f64 {
        if self.input_records == 0 {
            0.0
        } else {
            self.key_value_pairs as f64 / self.input_records as f64
        }
    }

    /// Key-value pairs actually shipped per input record — equals
    /// [`JobMetrics::replication_per_input`] for rounds without a combiner,
    /// and reflects the combiner savings otherwise.
    pub fn shuffled_per_input(&self) -> f64 {
        if self.input_records == 0 {
            0.0
        } else {
            self.shuffle_records as f64 / self.input_records as f64
        }
    }

    /// Fraction of mapper emissions the combiner removed before the shuffle
    /// (0.0 when no combiner ran or nothing was combined away).
    pub fn combiner_savings(&self) -> f64 {
        if self.combiner_input_records == 0 {
            0.0
        } else {
            1.0 - self.combiner_output_records as f64 / self.combiner_input_records as f64
        }
    }

    /// Folds another round's (or parallel job's) counters into this one:
    /// record counts, bytes, work and timings add; the skew indicator keeps
    /// the maximum.
    pub fn absorb(&mut self, other: &JobMetrics) {
        self.input_records += other.input_records;
        self.key_value_pairs += other.key_value_pairs;
        self.combiner_input_records += other.combiner_input_records;
        self.combiner_output_records += other.combiner_output_records;
        self.shuffle_records += other.shuffle_records;
        self.shuffle_bytes += other.shuffle_bytes;
        self.wire_bytes += other.wire_bytes;
        self.reducers_used += other.reducers_used;
        self.max_reducer_input = self.max_reducer_input.max(other.max_reducer_input);
        self.reducer_work += other.reducer_work;
        self.outputs += other.outputs;
        self.map_time += other.map_time;
        self.shuffle_time += other.shuffle_time;
        self.reduce_time += other.reduce_time;
        self.sink_fold_time += other.sink_fold_time;
        self.spilled_bytes += other.spilled_bytes;
        self.spill_runs += other.spill_runs;
        self.spill_read_secs += other.spill_read_secs;
    }

    /// The counters alone: a copy with every wall-clock field zeroed, so two
    /// runs of one job compare equal counter for counter.
    pub fn without_timings(&self) -> JobMetrics {
        JobMetrics {
            map_time: Duration::ZERO,
            shuffle_time: Duration::ZERO,
            reduce_time: Duration::ZERO,
            sink_fold_time: Duration::ZERO,
            spill_read_secs: Duration::ZERO,
            ..self.clone()
        }
    }

    /// Mean reducer input size.
    pub fn mean_reducer_input(&self) -> f64 {
        if self.reducers_used == 0 {
            0.0
        } else {
            self.key_value_pairs as f64 / self.reducers_used as f64
        }
    }

    /// Ratio of the largest reducer input to the mean — 1.0 means perfectly
    /// balanced reducers, larger values mean skew.
    pub fn skew(&self) -> f64 {
        let mean = self.mean_reducer_input();
        if mean == 0.0 {
            0.0
        } else {
            self.max_reducer_input as f64 / mean
        }
    }

    /// Total wall-clock time of the round.
    pub fn total_time(&self) -> Duration {
        self.map_time + self.shuffle_time + self.reduce_time + self.sink_fold_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_quantities() {
        let metrics = JobMetrics {
            input_records: 100,
            key_value_pairs: 500,
            combiner_input_records: 500,
            combiner_output_records: 400,
            shuffle_records: 400,
            shuffle_bytes: 6400,
            reducers_used: 50,
            max_reducer_input: 20,
            reducer_work: 1234,
            outputs: 7,
            ..JobMetrics::default()
        };
        assert!((metrics.replication_per_input() - 5.0).abs() < 1e-12);
        assert!((metrics.shuffled_per_input() - 4.0).abs() < 1e-12);
        assert!((metrics.combiner_savings() - 0.2).abs() < 1e-12);
        assert!((metrics.mean_reducer_input() - 10.0).abs() < 1e-12);
        assert!((metrics.skew() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_job_has_zero_ratios() {
        let metrics = JobMetrics::default();
        assert_eq!(metrics.replication_per_input(), 0.0);
        assert_eq!(metrics.shuffled_per_input(), 0.0);
        assert_eq!(metrics.combiner_savings(), 0.0);
        assert_eq!(metrics.mean_reducer_input(), 0.0);
        assert_eq!(metrics.skew(), 0.0);
        assert_eq!(metrics.total_time(), Duration::ZERO);
    }

    #[test]
    fn absorb_adds_counters_and_keeps_the_max_skew_indicator() {
        let mut a = JobMetrics {
            input_records: 10,
            key_value_pairs: 30,
            shuffle_records: 30,
            shuffle_bytes: 600,
            reducers_used: 4,
            max_reducer_input: 9,
            reducer_work: 100,
            outputs: 5,
            ..JobMetrics::default()
        };
        let b = JobMetrics {
            input_records: 20,
            key_value_pairs: 40,
            combiner_input_records: 40,
            combiner_output_records: 35,
            shuffle_records: 35,
            shuffle_bytes: 700,
            reducers_used: 6,
            max_reducer_input: 7,
            reducer_work: 50,
            outputs: 3,
            ..JobMetrics::default()
        };
        a.spilled_bytes = 100;
        a.spill_runs = 2;
        let b = JobMetrics {
            spilled_bytes: 50,
            spill_runs: 1,
            ..b
        };
        a.absorb(&b);
        assert_eq!(a.input_records, 30);
        assert_eq!(a.key_value_pairs, 70);
        assert_eq!(a.combiner_input_records, 40);
        assert_eq!(a.combiner_output_records, 35);
        assert_eq!(a.shuffle_records, 65);
        assert_eq!(a.shuffle_bytes, 1300);
        assert_eq!(a.reducers_used, 10);
        assert_eq!(a.max_reducer_input, 9);
        assert_eq!(a.reducer_work, 150);
        assert_eq!(a.outputs, 8);
        assert_eq!(a.spilled_bytes, 150);
        assert_eq!(a.spill_runs, 3);
    }
}
