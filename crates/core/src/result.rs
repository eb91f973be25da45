//! Result types shared by the serial and map-reduce enumeration algorithms.
//!
//! Since the sink refactor the primary result path is streaming: algorithms
//! push every instance into an [`crate::sink::InstanceSink`] and return only
//! *stats* — [`SerialStats`] / [`RunStats`] — so nothing here bounds the
//! output size. The `Vec`-carrying [`SerialRun`] / [`MapReduceRun`] remain as
//! the collect-mode wrappers the oracle tests and legacy callers use.

use crate::enumerate::KeySpace;
use crate::sink::{CollectSink, InstanceSink};
use std::sync::OnceLock;
use subgraph_mapreduce::{JobMetrics, RoundMetrics};
use subgraph_pattern::Instance;

/// Number of distinct instances in a slice, computed without cloning the
/// instances themselves (sorts a vector of references).
pub(crate) fn count_distinct(instances: &[Instance]) -> usize {
    let mut sorted: Vec<&Instance> = instances.iter().collect();
    sorted.sort_unstable();
    sorted.dedup();
    sorted.len()
}

/// Stats of a serial enumeration whose instances went to a sink.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SerialStats {
    /// Instances pushed into the sink.
    pub outputs: usize,
    /// The algorithm's self-reported work in its natural unit (candidate
    /// tuples examined); this is the quantity the `O(n^α m^β)` bounds of
    /// Sections 6–7 describe.
    pub work: u64,
}

/// Output of a serial enumeration algorithm in collect mode.
#[derive(Clone, Debug, Default)]
pub struct SerialRun {
    /// Every instance found (exactly once each if the algorithm is correct).
    /// Private so the lazily cached [`SerialRun::distinct`] can never go
    /// stale; read through [`SerialRun::instances`] / consume through
    /// [`SerialRun::into_instances`].
    instances: Vec<Instance>,
    /// The algorithm's self-reported work (see [`SerialStats::work`]).
    pub work: u64,
    /// Lazily computed distinct count.
    distinct: OnceLock<usize>,
}

impl SerialRun {
    /// Wraps collected instances and the work counter.
    pub fn new(instances: Vec<Instance>, work: u64) -> Self {
        SerialRun {
            instances,
            work,
            distinct: OnceLock::new(),
        }
    }

    /// The collected instances.
    pub fn instances(&self) -> &[Instance] {
        &self.instances
    }

    /// Consumes the run and returns the collected instances.
    pub fn into_instances(self) -> Vec<Instance> {
        self.instances
    }

    /// Number of instances found.
    pub fn count(&self) -> usize {
        self.instances.len()
    }

    /// Number of *distinct* instances (equals `count()` when the exactly-once
    /// invariant holds). Computed once on first call — no per-call clone or
    /// sort.
    pub fn distinct(&self) -> usize {
        *self
            .distinct
            .get_or_init(|| count_distinct(&self.instances))
    }

    /// Duplicate discoveries (0 when the exactly-once invariant holds).
    pub fn duplicates(&self) -> usize {
        self.count() - self.distinct()
    }
}

/// Stats of a map-reduce run whose instances went to a sink: everything
/// except the instances themselves.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Instances streamed to the sink by the final round's reducers.
    pub outputs: usize,
    /// Combined cost metrics over all rounds (communication cost, reducers
    /// used, reducer work, skew, timings).
    pub metrics: JobMetrics,
    /// Per-round (or, for CQ-oriented processing, per-job) metrics in
    /// execution order. Never empty for a run that executed the engine.
    pub round_metrics: Vec<RoundMetrics>,
    /// How many reducer keys each round of `round_metrics` could have used
    /// (its [`KeySpace::len`]); empty for strategies whose keys are not
    /// enumerated up front.
    pub possible_keys: Vec<usize>,
    /// What each reducer joined, for rounds that can say it in a line (the
    /// bucket-oriented round's single plan).
    pub reducer_join: Option<String>,
}

impl RunStats {
    /// Records that every round of this run drew its keys from `space`.
    pub(crate) fn with_key_space(mut self, space: &KeySpace) -> Self {
        self.possible_keys = vec![space.len(); self.round_metrics.len()];
        self
    }

    /// Stats for one named round's metrics, as [`subgraph_mapreduce::Round::run`]
    /// returns them.
    pub fn single_round(name: &str, metrics: JobMetrics) -> Self {
        RunStats {
            outputs: metrics.outputs,
            round_metrics: vec![RoundMetrics {
                name: name.to_string(),
                metrics: metrics.clone(),
            }],
            metrics,
            possible_keys: Vec::new(),
            reducer_join: None,
        }
    }

    /// Folds another independent job's stats in (CQ-oriented processing runs
    /// one job per query; costs add, per-job metrics concatenate).
    pub fn absorb(&mut self, other: RunStats) {
        self.outputs += other.outputs;
        self.metrics.absorb(&other.metrics);
        self.metrics.outputs = self.outputs;
        self.round_metrics.extend(other.round_metrics);
        self.possible_keys.extend(other.possible_keys);
    }

    /// Runs a streaming runner into a [`crate::sink::CollectSink`] and
    /// attaches what it gathered ([`RunStats::into_run`]).
    pub fn collect(run: impl FnOnce(&mut dyn InstanceSink) -> RunStats) -> MapReduceRun {
        let mut collected = CollectSink::new();
        let stats = run(&mut collected);
        stats.into_run(collected.into_items())
    }

    /// Upgrades the stats to a collect-mode [`MapReduceRun`] by attaching the
    /// instances a [`crate::sink::CollectSink`] gathered during the same run.
    pub fn into_run(self, instances: Vec<Instance>) -> MapReduceRun {
        debug_assert_eq!(
            self.outputs,
            instances.len(),
            "collected instances must match the streamed output count"
        );
        MapReduceRun {
            instances,
            metrics: self.metrics,
            round_metrics: self.round_metrics,
            distinct: OnceLock::new(),
        }
    }
}

/// Output of a map-reduce enumeration algorithm in collect mode (one or more
/// rounds, or — for CQ-oriented processing — several independent jobs).
#[derive(Clone, Debug)]
pub struct MapReduceRun {
    /// Every instance emitted by the final reducers. Private so the lazily
    /// cached [`MapReduceRun::distinct`] can never go stale.
    instances: Vec<Instance>,
    /// Combined cost metrics over all rounds.
    pub metrics: JobMetrics,
    /// Per-round (or per-job) metrics in execution order.
    pub round_metrics: Vec<RoundMetrics>,
    /// Lazily computed distinct count (see [`SerialRun::distinct`]).
    distinct: OnceLock<usize>,
}

impl MapReduceRun {
    /// Wraps a single round's result (named for the per-round breakdown).
    pub fn single_round(instances: Vec<Instance>, name: &str, metrics: JobMetrics) -> Self {
        RunStats::single_round(name, metrics).into_run(instances)
    }

    /// The collected instances.
    pub fn instances(&self) -> &[Instance] {
        &self.instances
    }

    /// Consumes the run and returns the collected instances.
    pub fn into_instances(self) -> Vec<Instance> {
        self.instances
    }

    /// Number of instances found.
    pub fn count(&self) -> usize {
        self.instances.len()
    }

    /// Number of distinct instances. Computed once on first call (no per-call
    /// clone or sort).
    pub fn distinct(&self) -> usize {
        *self
            .distinct
            .get_or_init(|| count_distinct(&self.instances))
    }

    /// Duplicate discoveries (0 when the exactly-once invariant holds).
    pub fn duplicates(&self) -> usize {
        self.count() - self.distinct()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_accounting() {
        let a = Instance::from_edge_set([(0, 1), (1, 2), (0, 2)]);
        let b = Instance::from_edge_set([(3, 4), (4, 5), (3, 5)]);
        let run = SerialRun::new(vec![a.clone(), b.clone(), a.clone()], 3);
        assert_eq!(run.count(), 3);
        assert_eq!(run.distinct(), 2);
        assert_eq!(run.duplicates(), 1);
        // The cached value answers repeat queries.
        assert_eq!(run.distinct(), 2);
    }

    #[test]
    fn empty_runs() {
        let run = SerialRun::default();
        assert_eq!(run.count(), 0);
        assert_eq!(run.duplicates(), 0);
    }

    #[test]
    fn single_round_runs_carry_one_round_entry() {
        let a = Instance::from_edge_set([(0, 1), (1, 2), (0, 2)]);
        let metrics = JobMetrics {
            shuffle_records: 9,
            outputs: 1,
            ..JobMetrics::default()
        };
        let run = MapReduceRun::single_round(vec![a], "demo", metrics.clone());
        assert_eq!(run.round_metrics.len(), 1);
        assert_eq!(run.round_metrics[0].name, "demo");
        assert_eq!(run.metrics, metrics);
        assert_eq!(run.count(), 1);
    }

    #[test]
    fn run_stats_absorb_adds_jobs() {
        let mut total = RunStats::single_round(
            "job-0",
            JobMetrics {
                shuffle_records: 10,
                outputs: 2,
                ..JobMetrics::default()
            },
        );
        total.absorb(RunStats::single_round(
            "job-1",
            JobMetrics {
                shuffle_records: 5,
                outputs: 3,
                ..JobMetrics::default()
            },
        ));
        assert_eq!(total.outputs, 5);
        assert_eq!(total.metrics.outputs, 5);
        assert_eq!(total.metrics.shuffle_records, 15);
        assert_eq!(total.round_metrics.len(), 2);
        assert_eq!(total.round_metrics[1].name, "job-1");
    }
}
