//! What the benchmark measures: the workloads and the metric names. The
//! names, units and bounds here are the ones `BENCHMARK.json` declares (a
//! unit test holds the two together).

/// An end-to-end metric: name, unit, and the share of the parent's median by
/// which it may get worse before a change counts as a regression. Every
/// bound is the contract's largest, 0.25: on the 2-core host the benchmark
/// was sized on, ten runs of identical code spread (q3 - q1 over the median)
/// by up to 12 % on every timing and 15 % on peak memory when a neighbour is
/// busy, and a bound has to clear that spread with room (README.md).
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        bound: 0.25,
    },
    EndToEnd {
        name: "lat_p50_ms",
        unit: "ms",
        bound: 0.25,
    },
    EndToEnd {
        name: "lat_p90_ms",
        unit: "ms",
        bound: 0.25,
    },
];

/// Per-layer metrics of the traced run, `<crate>.<what>`. A metric that does
/// not apply to a workload reads 0 there.
pub const PER_LAYER: [(&str, &str); 59] = [
    ("graph.load_s", "s"),
    ("graph.load_medges_s", "Medges/s"),
    ("graph.sgr_open_s", "s"),
    ("graph.sgr_first_touch_s", "s"),
    ("graph.stats_s", "s"),
    ("pattern.resolve_s", "s"),
    ("pattern.aut_s", "s"),
    ("cq.order_classes_s", "s"),
    ("shares.solve_s", "s"),
    ("core.plan_s", "s"),
    ("core.plan_share_pct", "%"),
    ("core.classes_scored", "count"),
    ("core.classes_pruned", "count"),
    ("core.predicted_records", "count"),
    ("core.prediction_error", "ratio"),
    ("core.execute_s", "s"),
    ("core.unaccounted_s", "s"),
    ("core.unaccounted_pct", "%"),
    ("mapreduce.map_s", "s"),
    ("mapreduce.exchange_s", "s"),
    ("mapreduce.reduce_s", "s"),
    ("mapreduce.phases_share_pct", "%"),
    ("mapreduce.shuffle_only_s", "s"),
    ("mapreduce.shuffle_share_pct", "%"),
    ("core.reduce_kernel_s", "s"),
    ("mapreduce.shuffle_records", "count"),
    ("mapreduce.shuffle_bytes", "bytes"),
    ("mapreduce.records_per_s", "1/s"),
    ("mapreduce.spilled_bytes", "bytes"),
    ("mapreduce.spill_runs", "count"),
    ("mapreduce.spill_read_s", "s"),
    ("mapreduce.reducers_used", "count"),
    ("mapreduce.max_reducer_input", "count"),
    ("mapreduce.skew", "ratio"),
    ("mapreduce.reducer_work", "count"),
    ("mapreduce.parallel_efficiency", "ratio"),
    ("codec.varint_encode_mb_s", "MB/s"),
    ("codec.varint_decode_mb_s", "MB/s"),
    ("core.sink_s", "s"),
    ("core.sink_bytes", "bytes"),
    ("core.sink_mb_s", "MB/s"),
    ("core.serial_kernel_s", "s"),
    ("core.regret_vs_serial", "ratio"),
    ("serve.boot_s", "s"),
    ("serve.http_overhead_ms", "ms"),
    ("serve.light_p50_ms", "ms"),
    ("serve.stream_p50_ms", "ms"),
    ("serve.heavy_p50_ms", "ms"),
    ("serve.lat_p99_ms", "ms"),
    ("serve.plan_cache_hit_ratio", "ratio"),
    ("serve.queries_ok", "count"),
    ("serve.client_errors", "count"),
    ("serve.io_errors", "count"),
    ("cli.startup_s", "s"),
    ("cli.oneshot_overhead_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("bench.ops", "count"),
    ("bench.failed_ops", "count"),
];

pub fn unit_of(metric: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER)
        .find(|(name, _)| *name == metric)
        .map_or("", |(_, unit)| unit)
}

#[derive(Clone, Copy, PartialEq)]
pub enum Mode {
    Count,
    /// Stream every instance as ndjson into a file.
    Enumerate,
}

/// One complete batch query: load → plan → execute → sink.
pub struct Batch {
    /// Whether the fixture is a binary `.sgr` (mmap) or a text edge list.
    pub binary: bool,
    pub pattern: &'static str,
    pub mode: Mode,
    /// `EngineConfig::memory_budget` in bytes; `None` keeps the shuffle
    /// resident.
    pub memory_budget: Option<usize>,
}

pub enum Kind {
    Batch(Batch),
    /// A closed loop of HTTP queries against an in-process `serve`.
    Serve,
    /// `plan()` without execute over a pattern sweep.
    PlanSweep,
}

pub struct Workload {
    pub name: &'static str,
    /// Generator spec of the input graph; `{seed}` is the `--seed` argument.
    pub generator: &'static str,
    pub kind: Kind,
}

/// Reducer budget of every map-reduce query (the engine default).
pub const REDUCERS: usize = 64;

// Sizes were measured on a 2-core host so that one repetition takes 2.2 to
// 2.8 s: long enough that scheduler noise is a few percent of it, short
// enough that a run (set-up, warm-up and a 10 s window) fits the driver's
// time cap with six workloads. README.md has the measurements.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "tri_gnm_shuffle",
        generator: "gnm:390000,1300000,{seed}",
        kind: Kind::Batch(Batch {
            binary: true,
            pattern: "triangle",
            mode: Mode::Count,
            memory_budget: None,
        }),
    },
    Workload {
        name: "tri_gnm_spill",
        generator: "gnm:390000,1300000,{seed}",
        kind: Kind::Batch(Batch {
            binary: true,
            pattern: "triangle",
            mode: Mode::Count,
            memory_budget: Some(16 << 20),
        }),
    },
    Workload {
        name: "square_gnm_kernel",
        generator: "gnm:22000,110000,{seed}",
        kind: Kind::Batch(Batch {
            binary: false,
            pattern: "square",
            mode: Mode::Count,
            memory_budget: None,
        }),
    },
    Workload {
        name: "tri_powerlaw_enum",
        generator: "power-law:32000,160000,2.2,{seed}",
        kind: Kind::Batch(Batch {
            binary: false,
            pattern: "triangle",
            mode: Mode::Enumerate,
            memory_budget: None,
        }),
    },
    Workload {
        name: "serve_warm_mix",
        generator: "gnm:12000,60000,{seed}",
        kind: Kind::Serve,
    },
    Workload {
        name: "plan_sweep",
        generator: "gnm:390000,1300000,{seed}",
        kind: Kind::PlanSweep,
    },
];

/// The patterns `plan_sweep` plans: the ten catalog entries plus the large
/// family members whose automorphism groups and order-class trees make the
/// planner work (`hypercube4` does not finish planning in 60 s and is left
/// out).
pub fn sweep_patterns() -> Vec<String> {
    subgraph_pattern::catalog::entries()
        .iter()
        .map(|entry| entry.name.to_string())
        .chain(["star9", "star10", "k8", "k9", "c9", "path8"].map(String::from))
        .collect()
}

/// How many times one `plan_sweep` repetition walks the pattern list.
pub const SWEEP_LOOPS: usize = 3;

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"name": "<x>"` in the JSON array that follows `"<key>":`.
    fn names_under(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\":")).expect("key present");
        let section = &json[start..];
        let section = &section[..section.find(']').expect("array closes")];
        section
            .split("\"name\":")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_names_the_harness_reports() {
        let json = include_str!("../../BENCHMARK.json");
        let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names_under(json, "workloads"), workloads);
        let end_to_end: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names_under(json, "end_to_end"), end_to_end);
        let per_layer: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names_under(json, "per_layer"), per_layer);
        for metric in &END_TO_END {
            let declared = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"lower\", \"bound\": {}",
                metric.name, metric.unit, metric.bound
            );
            assert!(json.contains(&declared), "{declared}");
        }
    }

    #[test]
    fn metric_names_are_unique_and_have_units() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert_eq!(unit_of("wall_s"), "s");
        assert_eq!(unit_of("mapreduce.records_per_s"), "1/s");
    }
}
