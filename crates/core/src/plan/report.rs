//! [`RunReport`]: the unified result type every strategy returns.

use crate::plan::strategy::StrategyKind;
use crate::result::{count_distinct, RunStats, SerialStats};
use std::sync::OnceLock;
use subgraph_mapreduce::{JobMetrics, RoundMetrics};
use subgraph_pattern::Instance;

/// Where a run's instances went.
#[derive(Clone, Debug)]
enum ReportOutput {
    /// The legacy path: every instance was collected into the report.
    Collected {
        instances: Vec<Instance>,
        distinct: OnceLock<usize>,
    },
    /// The instances were streamed into a caller-provided
    /// [`crate::sink::InstanceSink`]; only the count crossed back. The report
    /// holds no per-instance storage.
    Streamed { count: usize },
}

/// Output of executing an [`crate::plan::ExecutionPlan`], subsuming the older
/// [`crate::result::MapReduceRun`] / [`crate::result::SerialRun`] split: serial strategies simply have no
/// job metrics and zero rounds.
///
/// A report is either *collected* ([`crate::plan::ExecutionPlan::execute`] —
/// the instances live in the report) or *streamed*
/// ([`crate::plan::ExecutionPlan::run_with_sink`] — the instances went to the
/// caller's sink and only the count is retained). [`RunReport::count`] is
/// correct in both modes; [`RunReport::instances`] is empty for streamed
/// reports, and duplicate *verification* ([`RunReport::verified_duplicates`])
/// is only possible in collect mode.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// The strategy that produced the result.
    pub strategy: StrategyKind,
    /// Number of map-reduce rounds executed (0 for serial strategies, 1 for
    /// the paper's single-round algorithms, 2 for the cascade baseline).
    pub rounds: usize,
    output: ReportOutput,
    /// Measured cost metrics combined over all round(s); `None` for serial
    /// strategies.
    pub metrics: Option<JobMetrics>,
    /// Measured metrics per round; empty for serial strategies.
    pub round_metrics: Vec<RoundMetrics>,
    /// Per round of `round_metrics`, how many reducer keys the round could
    /// have used; empty when the strategy does not enumerate its keys up
    /// front (and for collect-mode wrappers of legacy runs).
    pub possible_keys: Vec<usize>,
    /// What each reducer joined, where the strategy can say it in a line:
    /// bucket-oriented processing's single symmetry-broken plan.
    pub reducer_join: Option<String>,
    /// Total computation cost in the algorithm's natural unit: the summed
    /// reducer work for map-reduce strategies, the serial `work` counter
    /// otherwise (the quantity the `O(n^α m^β)` bounds of Sections 6-7
    /// describe).
    pub work: u64,
}

impl RunReport {
    /// Wraps a sink-mode map-reduce result: the instances went to the
    /// caller's sink, the report carries only their count and the metrics.
    pub fn streamed_map_reduce(strategy: StrategyKind, rounds: usize, stats: RunStats) -> Self {
        RunReport {
            strategy,
            rounds,
            output: ReportOutput::Streamed {
                count: stats.outputs,
            },
            work: stats.metrics.reducer_work,
            metrics: Some(stats.metrics),
            round_metrics: stats.round_metrics,
            possible_keys: stats.possible_keys,
            reducer_join: stats.reducer_join,
        }
    }

    /// Wraps a sink-mode serial result.
    pub fn streamed_serial(strategy: StrategyKind, stats: SerialStats) -> Self {
        RunReport {
            strategy,
            rounds: 0,
            output: ReportOutput::Streamed {
                count: stats.outputs,
            },
            metrics: None,
            round_metrics: Vec::new(),
            possible_keys: Vec::new(),
            reducer_join: None,
            work: stats.work,
        }
    }

    /// Upgrades a streamed report to a collected one by attaching the
    /// instances a [`crate::sink::CollectSink`] gathered during the same run
    /// (the `Vec`-returning `execute()` path).
    pub(crate) fn with_collected(mut self, instances: Vec<Instance>) -> Self {
        debug_assert_eq!(
            self.count(),
            instances.len(),
            "collected instances must match the streamed count"
        );
        self.output = ReportOutput::Collected {
            instances,
            distinct: OnceLock::new(),
        };
        self
    }

    /// True when the instances were streamed to a sink instead of collected
    /// into the report.
    pub fn is_streamed(&self) -> bool {
        matches!(self.output, ReportOutput::Streamed { .. })
    }

    /// Number of instances found — the collected length, or the streamed
    /// count for sink-mode runs (never a misleading 0).
    pub fn count(&self) -> usize {
        match &self.output {
            ReportOutput::Collected { instances, .. } => instances.len(),
            ReportOutput::Streamed { count } => *count,
        }
    }

    /// The collected instances. Empty for streamed reports — check
    /// [`RunReport::is_streamed`] before concluding "no results" from an
    /// empty slice; [`RunReport::count`] is always accurate.
    pub fn instances(&self) -> &[Instance] {
        match &self.output {
            ReportOutput::Collected { instances, .. } => instances,
            ReportOutput::Streamed { .. } => &[],
        }
    }

    /// Consumes the report and returns the collected instances (empty for
    /// streamed reports).
    pub fn into_instances(self) -> Vec<Instance> {
        match self.output {
            ReportOutput::Collected { instances, .. } => instances,
            ReportOutput::Streamed { .. } => Vec::new(),
        }
    }

    /// Number of *distinct* instances (equals `count()` when the exactly-once
    /// invariant holds). Collect mode computes (and caches) the true value;
    /// streamed reports return the count, since distinctness can only be
    /// verified when the instances are retained — see
    /// [`RunReport::verified_duplicates`].
    pub fn distinct(&self) -> usize {
        match &self.output {
            ReportOutput::Collected {
                instances,
                distinct,
            } => *distinct.get_or_init(|| count_distinct(instances)),
            ReportOutput::Streamed { count } => *count,
        }
    }

    /// Duplicate discoveries. In collect mode this is measured
    /// (`count() - distinct()`); streamed reports return 0 *by trust in the
    /// exactly-once guarantee*, not by measurement — use
    /// [`RunReport::verified_duplicates`] to distinguish.
    pub fn duplicates(&self) -> usize {
        self.count() - self.distinct()
    }

    /// Measured duplicate count: `Some` when the instances were collected and
    /// could be checked, `None` for streamed runs (nothing was retained to
    /// check against).
    pub fn verified_duplicates(&self) -> Option<usize> {
        match &self.output {
            ReportOutput::Collected { .. } => Some(self.duplicates()),
            ReportOutput::Streamed { .. } => None,
        }
    }

    /// One honest line about the result for tables and summaries:
    /// `"N instances collected"` or `"N instances streamed to a sink (not
    /// retained)"` — so count-only runs never render as if nothing was found.
    pub fn describe_output(&self) -> String {
        match &self.output {
            ReportOutput::Collected { instances, .. } => {
                format!("{} instances collected", instances.len())
            }
            ReportOutput::Streamed { count } => {
                format!("{count} instances streamed to a sink (not retained)")
            }
        }
    }

    /// A human-readable multi-line summary of the run — what the `subgraph`
    /// CLI prints (to stderr, under `--verbose`) after a `count`/`enumerate`.
    /// Each map-reduce round lists its shipped pairs, the reducer keys it used
    /// out of those its key space holds, the bytes per record the arena
    /// really carried against the bytes the cost model prices, and the
    /// wall-clock of its map, exchange, reduce and sink-fold phases (grouping
    /// and the reducers' join both fall in `reduce`; `sink fold` is the
    /// coordinator handing the workers' output shards to the sink); a
    /// bucket-oriented run adds what its reducers joined. Serial
    /// strategies render without the map-reduce counters; streamed and
    /// collected runs both describe their output honestly (via
    /// [`RunReport::describe_output`]).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "strategy: {} ({} round{})\n",
            self.strategy,
            self.rounds,
            if self.rounds == 1 { "" } else { "s" },
        ));
        out.push_str(&format!("output:   {}\n", self.describe_output()));
        if let Some(verified) = self.verified_duplicates() {
            out.push_str(&format!("          {verified} duplicate discoveries\n"));
        }
        if let Some(metrics) = &self.metrics {
            out.push_str(&format!(
                "shuffle:  {} pairs shipped ({} bytes)\n",
                metrics.shuffle_records, metrics.shuffle_bytes,
            ));
            let millis = |d: std::time::Duration| d.as_secs_f64() * 1e3;
            for (i, round) in self.round_metrics.iter().enumerate() {
                let m = &round.metrics;
                out.push_str(&format!(
                    "          round {}: {} pairs shipped, {} outputs\n",
                    round.name, m.shuffle_records, m.outputs,
                ));
                let possible = self.possible_keys.get(i);
                let possible = possible.map(|n| format!("/{n}")).unwrap_or_default();
                out.push_str(&format!("            keys {}{possible}", m.reducers_used));
                if m.wire_bytes > 0 {
                    let per_record = |bytes: u64| bytes as f64 / m.shuffle_records.max(1) as f64;
                    out.push_str(&format!(
                        ", wire {:.1} B/rec vs priced {:.1} B/rec",
                        per_record(m.wire_bytes),
                        per_record(m.shuffle_bytes),
                    ));
                }
                out.push('\n');
                out.push_str(&format!(
                    "            map {:.1} ms, exchange {:.1} ms, reduce {:.1} ms, sink fold {:.1} ms\n",
                    millis(m.map_time),
                    millis(m.shuffle_time),
                    millis(m.reduce_time),
                    millis(m.sink_fold_time),
                ));
            }
            if let Some(join) = &self.reducer_join {
                out.push_str(&format!("          reducer join: {join}\n"));
            }
        }
        out.push_str(&format!("work:     {}\n", self.work));
        out
    }

    /// Measured communication cost: key-value pairs shipped through the
    /// shuffle(s). 0 for serial strategies, which ship nothing.
    pub fn communication(&self) -> usize {
        self.metrics.as_ref().map_or(0, |m| m.shuffle_records)
    }

    /// Measured shuffled payload bytes across all rounds.
    pub fn shuffle_bytes(&self) -> u64 {
        self.metrics.as_ref().map_or(0, |m| m.shuffle_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_map_reduce_reports_share_one_shape() {
        let a = Instance::from_edge_set([(0, 1), (1, 2), (0, 2)]);
        let serial = RunReport::streamed_serial(
            StrategyKind::SerialJoin,
            SerialStats {
                outputs: 2,
                work: 9,
            },
        )
        .with_collected(vec![a.clone(), a.clone()]);
        assert_eq!(serial.count(), 2);
        assert_eq!(serial.distinct(), 1);
        assert_eq!(serial.duplicates(), 1);
        assert_eq!(serial.verified_duplicates(), Some(1));
        assert_eq!(serial.work, 9);
        assert_eq!(serial.rounds, 0);
        assert_eq!(serial.communication(), 0);
        assert!(!serial.is_streamed());
        assert!(serial.metrics.is_none());
        assert!(serial.round_metrics.is_empty());

        let mr = RunReport::streamed_map_reduce(
            StrategyKind::BucketOriented,
            1,
            RunStats::single_round(
                "bucket-oriented",
                JobMetrics {
                    shuffle_records: 42,
                    shuffle_bytes: 840,
                    reducer_work: 7,
                    outputs: 1,
                    ..JobMetrics::default()
                },
            ),
        )
        .with_collected(vec![a]);
        assert_eq!(mr.count(), 1);
        assert_eq!(mr.instances().len(), 1);
        assert_eq!(mr.communication(), 42);
        assert_eq!(mr.shuffle_bytes(), 840);
        assert_eq!(mr.work, 7);
        assert_eq!(mr.rounds, 1);
        assert_eq!(mr.round_metrics.len(), 1);
        assert_eq!(mr.round_metrics[0].name, "bucket-oriented");
    }

    #[test]
    fn streamed_reports_count_honestly_without_instances() {
        let stats = RunStats::single_round(
            "bucket-oriented",
            JobMetrics {
                shuffle_records: 600,
                outputs: 123,
                reducer_work: 40,
                ..JobMetrics::default()
            },
        );
        let report = RunReport::streamed_map_reduce(StrategyKind::BucketOriented, 1, stats);
        assert!(report.is_streamed());
        assert_eq!(report.count(), 123);
        assert!(report.instances().is_empty());
        assert_eq!(report.distinct(), 123);
        assert_eq!(report.duplicates(), 0);
        assert_eq!(report.verified_duplicates(), None);
        assert_eq!(report.work, 40);
        assert!(report.describe_output().contains("123 instances streamed"));
        assert_eq!(report.into_instances(), Vec::<Instance>::new());

        let serial = RunReport::streamed_serial(
            StrategyKind::SerialJoin,
            SerialStats {
                outputs: 5,
                work: 50,
            },
        );
        assert_eq!(serial.count(), 5);
        assert_eq!(serial.rounds, 0);
        assert!(serial.describe_output().contains("streamed"));
    }

    #[test]
    fn render_summarizes_both_serial_and_map_reduce_runs() {
        let a = Instance::from_edge_set([(0, 1), (1, 2), (0, 2)]);
        let serial = RunReport::streamed_serial(
            StrategyKind::SerialJoin,
            SerialStats {
                outputs: 1,
                work: 9,
            },
        )
        .with_collected(vec![a]);
        let text = serial.render();
        assert!(text.contains("strategy: serial-join (0 rounds)"));
        assert!(text.contains("1 instances collected"));
        assert!(text.contains("0 duplicate discoveries"));
        assert!(text.contains("work:     9"));
        assert!(!text.contains("shuffle:"), "serial runs ship nothing");

        let streamed = RunReport::streamed_map_reduce(
            StrategyKind::BucketOriented,
            1,
            RunStats {
                possible_keys: vec![56],
                ..RunStats::single_round(
                    "bucket-oriented",
                    JobMetrics {
                        shuffle_records: 42,
                        shuffle_bytes: 840,
                        wire_bytes: 315,
                        reducers_used: 9,
                        reducer_work: 7,
                        outputs: 3,
                        map_time: std::time::Duration::from_micros(1_500),
                        shuffle_time: std::time::Duration::from_micros(20),
                        reduce_time: std::time::Duration::from_millis(12),
                        sink_fold_time: std::time::Duration::from_micros(2_300),
                        ..JobMetrics::default()
                    },
                )
            },
        );
        let text = streamed.render();
        assert!(text.contains("strategy: bucket-oriented (1 round)"));
        assert!(text.contains("3 instances streamed"));
        assert!(text.contains("shuffle:  42 pairs shipped (840 bytes)"));
        assert!(text.contains("round bucket-oriented"));
        assert!(text.contains("keys 9/56, wire 7.5 B/rec vs priced 20.0 B/rec"));
        assert!(text.contains("map 1.5 ms, exchange 0.0 ms, reduce 12.0 ms, sink fold 2.3 ms"));
        assert!(!text.contains("duplicate discoveries"));
    }
}
