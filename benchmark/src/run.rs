//! The run process: one workload, one warm-up repetition, then timed
//! repetitions until the measuring window is used up. With tracing on, every
//! other repetition records spans and the layer probes run afterwards.

use crate::fixture::{hash_file, Error, Fixture};
use crate::host::{peak_rss_mb, threads, timed, Timed};
use crate::serve_mix::{self, Class};
use crate::spec::{Batch, Kind, Mode, Workload, REDUCERS, SWEEP_LOOPS};
use crate::stats::{median, sorted, tail_percentile, Summary};
use crate::trace::Tracer;
use std::hint::black_box;
use std::io::BufWriter;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;
use subgraph_core::enumerate::bucket_oriented::bucket_oriented_with_cqs_into;
use subgraph_core::plan::{EnumerationRequest, ExecutionPlan, StrategyKind};
use subgraph_core::sink::{CountSink, NdjsonSink, SerializeSink};
use subgraph_graph::{DataGraph, DegeneracyOrder, DegreeOrder, GraphSource};
use subgraph_mapreduce::{EngineConfig, JobMetrics};
use subgraph_serve::{client, spawn, GraphStore, QueryEngine, ServerConfig, ServerHandle};

/// Fewest timed repetitions of a run, whatever the window.
const MIN_REPETITIONS: usize = 3;

/// One repetition as measured.
struct Repetition {
    timed: Timed,
    /// Operations checked against the oracle, and how many of them failed.
    ops: usize,
    failed: usize,
    /// Client-observed request latencies (serve only; elsewhere the
    /// repetition is the request).
    latencies_ms: Vec<f64>,
}

/// What the last batch query reported, for the layer metrics.
#[derive(Default)]
struct QueryFacts {
    edges: usize,
    metrics: JobMetrics,
    predicted_records: f64,
    classes_scored: usize,
    classes_pruned: usize,
    sink_bytes: u64,
}

struct Server {
    handle: ServerHandle,
    sequence: Vec<Class>,
    boot_s: f64,
    replies: Vec<serve_mix::Reply>,
}

struct Runner<'w> {
    workload: &'w Workload,
    fixture: Fixture,
    threads: usize,
    tracer: Tracer,
    facts: QueryFacts,
    server: Option<Server>,
}

fn engine_config(batch: &Batch, fixture: &Fixture, threads: usize) -> EngineConfig {
    let engine = EngineConfig::with_threads(threads);
    match batch.memory_budget {
        Some(bytes) => engine
            .memory_budget(bytes)
            .spill_dir(fixture.dir.join("spill")),
        None => engine,
    }
}

fn classes(plan: &ExecutionPlan<'_>) -> (usize, usize) {
    plan.candidates()
        .iter()
        .fold((0, 0), |(scored, pruned), c| {
            (scored + c.classes_scored, pruned + c.classes_pruned)
        })
}

impl<'w> Runner<'w> {
    fn prepare(workload: &'w Workload, fixture: Fixture, seed: u64) -> Result<Self, Error> {
        std::fs::create_dir_all(fixture.dir.join("spill"))?;
        let server = match workload.kind {
            Kind::Serve => Some(boot_server(&fixture, seed)?),
            _ => None,
        };
        Ok(Runner {
            workload,
            fixture,
            threads: threads(),
            tracer: Tracer::new(false),
            facts: QueryFacts::default(),
            server,
        })
    }

    fn repetition(&mut self) -> Result<Repetition, Error> {
        match &self.workload.kind {
            Kind::Batch(batch) => self.batch_query(batch),
            Kind::Serve => Ok(self.serve_block()),
            Kind::PlanSweep => self.plan_sweep(),
        }
    }

    /// One complete query: load the graph file, plan, execute into the sink.
    fn batch_query(&mut self, batch: &Batch) -> Result<Repetition, Error> {
        let output = self.fixture.dir.join("instances.ndjson");
        let engine = engine_config(batch, &self.fixture, self.threads);
        let graph_file = GraphSource::file(&self.fixture.graph);
        let tracer = &mut self.tracer;
        let (result, timed) = timed(|| {
            tracer.span("rep", |tracer| -> Result<_, Error> {
                let graph = tracer.span("graph.load", |_| graph_file.load())?;
                let request = EnumerationRequest::resolve(batch.pattern, &graph)?
                    .reducers(REDUCERS)
                    .engine(engine);
                let plan = tracer.span("core.plan", |_| request.plan())?;
                let report = tracer.span("core.execute", |_| -> Result<_, Error> {
                    Ok(match batch.mode {
                        Mode::Count => plan.count(),
                        Mode::Enumerate => {
                            let file = BufWriter::new(std::fs::File::create(&output)?);
                            let mut sink = NdjsonSink::new(file);
                            let report = plan.run_with_sink(&mut sink);
                            sink.finish()?;
                            report
                        }
                    })
                })?;
                let metrics = report.metrics.clone().unwrap_or_default();
                tracer.children_from_phases(
                    "core.execute",
                    &[
                        ("mapreduce.map", metrics.map_time.as_secs_f64()),
                        ("mapreduce.exchange", metrics.shuffle_time.as_secs_f64()),
                        ("mapreduce.reduce", metrics.reduce_time.as_secs_f64()),
                    ],
                );
                let (classes_scored, classes_pruned) = classes(&plan);
                let facts = QueryFacts {
                    edges: graph.num_edges(),
                    metrics,
                    predicted_records: plan.predicted_communication(),
                    classes_scored,
                    classes_pruned,
                    sink_bytes: 0,
                };
                Ok((report.count(), facts))
            })
        });
        let (count, facts) = result?;
        self.facts = facts;
        // Checked outside the timed stretch: the count, the cost model's
        // record prediction (exact on these single-round plans) and, for
        // enumerate, the lines the sink wrote.
        let oracle = &self.fixture.oracle;
        let mut correct = count == oracle.count
            && self.facts.predicted_records == self.facts.metrics.shuffle_records as f64;
        if batch.mode == Mode::Enumerate {
            correct &= hash_file(&output)? == (oracle.lines, oracle.hash);
            self.facts.sink_bytes = std::fs::metadata(&output)?.len();
        }
        Ok(Repetition {
            timed,
            ops: 1,
            failed: usize::from(!correct),
            latencies_ms: Vec::new(),
        })
    }

    /// One block of the request sequence through the running server.
    fn serve_block(&mut self) -> Repetition {
        let server = self.server.as_mut().expect("serve workload booted");
        let addr = server.handle.tcp_addr().expect("tcp listener");
        let (replies, timed) =
            timed(|| serve_mix::run_block(&addr, &server.sequence, &self.fixture.oracle));
        for reply in &replies {
            self.tracer
                .record(reply.class.name(), reply.client, reply.start, reply.secs);
        }
        let repetition = Repetition {
            timed,
            ops: replies.len(),
            failed: replies.iter().filter(|reply| !reply.ok).count(),
            latencies_ms: replies.iter().map(|reply| reply.secs * 1e3).collect(),
        };
        server.replies.extend(replies);
        repetition
    }

    /// `plan()` for every sweep pattern, `SWEEP_LOOPS` times, executing
    /// nothing.
    fn plan_sweep(&mut self) -> Result<Repetition, Error> {
        let graph_file = GraphSource::file(&self.fixture.graph);
        let expected = &self.fixture.oracle.plans;
        let tracer = &mut self.tracer;
        let (result, timed) = timed(|| {
            tracer.span("rep", |tracer| -> Result<_, Error> {
                let graph = tracer.span("graph.load", |_| graph_file.load())?;
                let mut failed = 0;
                let mut facts = QueryFacts {
                    edges: graph.num_edges(),
                    ..QueryFacts::default()
                };
                for pass in 0..SWEEP_LOOPS {
                    for want in expected {
                        let request = EnumerationRequest::resolve(&want.pattern, &graph)?;
                        let plan = tracer.span("core.plan", |_| request.plan())?;
                        // Theorem 3.1: wherever an order-class search ran,
                        // scored + pruned classes are all p!/|Aut| of them.
                        let searched_all = plan.candidates().iter().all(|c| {
                            let searched = c.classes_scored + c.classes_pruned;
                            searched == 0 || searched == want.order_classes
                        });
                        if plan.strategy().to_string() != want.strategy || !searched_all {
                            failed += 1;
                        }
                        if pass == 0 {
                            let (scored, pruned) = classes(&plan);
                            facts.classes_scored += scored;
                            facts.classes_pruned += pruned;
                        }
                    }
                }
                Ok((failed, facts))
            })
        });
        let (failed, facts) = result?;
        self.facts = facts;
        Ok(Repetition {
            timed,
            ops: SWEEP_LOOPS * expected.len(),
            failed,
            latencies_ms: Vec::new(),
        })
    }
}

/// Opens the graph store, starts the server and warms every request class
/// three times (first plans, lazily built indexes): part of set-up.
fn boot_server(fixture: &Fixture, seed: u64) -> Result<Server, Error> {
    let start = Instant::now();
    let store = GraphStore::open(&GraphSource::file(&fixture.graph))?;
    let config = ServerConfig {
        listen: Some("127.0.0.1:0".to_string()),
        pool: serve_mix::CLIENTS,
        threads_per_query: 1,
        ..ServerConfig::default()
    };
    let engine = QueryEngine::new(store, config.cache_capacity, config.threads_per_query);
    let handle = spawn(engine, &config)?;
    let addr = handle.tcp_addr().ok_or("server has no tcp address")?;
    for class in Class::ALL {
        for _ in 0..3 {
            client::get(&addr, &class.target())?;
        }
    }
    Ok(Server {
        handle,
        sequence: serve_mix::sequence(seed),
        boot_s: start.elapsed().as_secs_f64(),
        replies: Vec::new(),
    })
}

type Metrics = Vec<(&'static str, Summary)>;

/// Runs the workload and prints one `metric <name> <median> <q1> <q3> <n>`
/// line per metric for the parent process.
pub fn run(
    workload: &Workload,
    dir: &Path,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<(), Error> {
    let fixture = Fixture::open(workload, dir)?;
    let mut runner = Runner::prepare(workload, fixture, seed)?;
    runner.repetition()?; // warm-up: page cache, allocator, worker pool
    if let Some(server) = runner.server.as_mut() {
        server.replies.clear();
    }

    // Tracing on: odd repetitions record spans, even ones do not, so the two
    // halves see the same machine and their difference is the overhead.
    let mut repetitions: Vec<(bool, Repetition)> = Vec::new();
    let min_repetitions = if trace { 4 } else { MIN_REPETITIONS };
    let window = Instant::now();
    loop {
        let n = repetitions.len();
        if n >= min_repetitions {
            let walls: Vec<f64> = repetitions.iter().map(|(_, r)| r.timed.wall_s).collect();
            // Start another repetition only if half of it still fits.
            if window.elapsed().as_secs_f64() + median(&walls) / 2.0 > seconds {
                break;
            }
        }
        let traced = trace && n.is_multiple_of(2);
        runner.tracer.begin_repetition(n + 1, traced);
        let repetition = runner.repetition()?;
        eprintln!(
            "{} repetition {}: wall {:.3} s, cpu {:.3} s",
            workload.name,
            n + 1,
            repetition.timed.wall_s,
            repetition.timed.cpu_s
        );
        repetitions.push((traced, repetition));
    }

    let walls: Vec<f64> = repetitions.iter().map(|(_, r)| r.timed.wall_s).collect();
    let cpus: Vec<f64> = repetitions.iter().map(|(_, r)| r.timed.cpu_s).collect();
    let mut latencies: Vec<f64> = repetitions
        .iter()
        .flat_map(|(_, r)| r.latencies_ms.iter().copied())
        .collect();
    if latencies.is_empty() {
        latencies = walls.iter().map(|wall| wall * 1e3).collect();
    }
    let latencies = sorted(&latencies);
    let (p90, _) = tail_percentile(&latencies, 0.90, 10);
    let ops: usize = repetitions.iter().map(|(_, r)| r.ops).sum();
    let failed: usize = repetitions.iter().map(|(_, r)| r.failed).sum();

    let mut metrics: Metrics = vec![
        ("wall_s", Summary::of(&walls)),
        ("cpu_s", Summary::of(&cpus)),
        ("peak_rss_mb", Summary::single(peak_rss_mb())),
        ("lat_p50_ms", Summary::of(&latencies)),
        ("lat_p90_ms", Summary::point(p90, latencies.len())),
        (
            "serve.boot_s",
            Summary::single(runner.server.as_ref().map_or(0.0, |s| s.boot_s)),
        ),
        ("bench.ops", Summary::single(ops as f64)),
        ("bench.failed_ops", Summary::single(failed as f64)),
    ];
    if trace {
        let busy = ratio(median(&cpus), median(&walls) * runner.threads as f64);
        metrics.push(("mapreduce.parallel_efficiency", Summary::single(busy)));
        layer_metrics(&mut runner, &repetitions, &mut metrics)?;
        let out = dir.parent().unwrap_or(dir);
        let path = out.join(format!("trace-{}.json", workload.name));
        runner.tracer.write_chrome_trace(&path)?;
        eprintln!("trace written to {}", path.display());
    }
    if let Some(server) = runner.server.take() {
        server.handle.shutdown();
    }
    for (name, s) in metrics {
        println!("metric {name} {} {} {} {}", s.median, s.q1, s.q3, s.n);
    }
    Ok(())
}

fn seconds<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Per-layer metrics from the recorded spans, the counters of the last
/// query, and the probes that time one layer's public functions directly.
fn layer_metrics(
    runner: &mut Runner<'_>,
    repetitions: &[(bool, Repetition)],
    metrics: &mut Metrics,
) -> Result<(), Error> {
    let walls_of = |traced: bool| -> Vec<f64> {
        repetitions
            .iter()
            .filter(|(t, _)| *t == traced)
            .map(|(_, r)| r.timed.wall_s)
            .collect()
    };
    let wall_of = |traced: bool| median(&walls_of(traced));
    let fastest = |traced: bool| walls_of(traced).into_iter().fold(f64::INFINITY, f64::min);
    let wall = wall_of(true);
    let mut put = |name: &'static str, summary: Summary| metrics.push((name, summary));
    // The fastest repetition of each half: a busy neighbour only ever adds
    // time, and three repetitions a side are too few for their medians to
    // resolve a difference of a few percent.
    put(
        "trace.overhead_pct",
        Summary::single((fastest(true) / fastest(false) - 1.0) * 100.0),
    );
    put(
        "trace.spans",
        Summary::single(runner.tracer.spans.len() as f64),
    );

    let graph = GraphSource::file(&runner.fixture.graph).load()?;
    let (_, stats_s) = seconds(|| {
        black_box(subgraph_graph::stats::stats(&graph));
        black_box(DegreeOrder::new(&graph));
        black_box(DegeneracyOrder::new(&graph));
    });
    put("graph.stats_s", Summary::single(stats_s));

    if let Some(server) = &runner.server {
        serve_layers(server, &mut put)?;
        return Ok(());
    }

    // Spans of the traced repetitions, summed per repetition.
    let tracer = &runner.tracer;
    let span = |name: &str| Summary::of(&tracer.per_repetition(name, false));
    let load = span("graph.load");
    let facts = &runner.facts;
    put("graph.load_s", load);
    put(
        "graph.load_medges_s",
        Summary::single(ratio(facts.edges as f64 / 1e6, load.median)),
    );
    if runner.fixture.graph.extension().is_some_and(|e| e == "sgr") {
        put("graph.sgr_open_s", load);
        put(
            "graph.sgr_first_touch_s",
            Summary::single(first_touch_seconds(&runner.fixture.graph)?),
        );
    }
    let plan = span("core.plan");
    put("core.plan_s", plan);
    put(
        "core.plan_share_pct",
        Summary::single(ratio(plan.median, wall) * 100.0),
    );
    put(
        "core.classes_scored",
        Summary::single(facts.classes_scored as f64),
    );
    put(
        "core.classes_pruned",
        Summary::single(facts.classes_pruned as f64),
    );

    match &runner.workload.kind {
        Kind::Batch(batch) => {
            let execute = span("core.execute");
            let unaccounted = Summary::of(&tracer.per_repetition("core.execute", true));
            let phases = [
                ("mapreduce.map_s", span("mapreduce.map")),
                ("mapreduce.exchange_s", span("mapreduce.exchange")),
                ("mapreduce.reduce_s", span("mapreduce.reduce")),
            ];
            let phase_total: f64 = phases.iter().map(|(_, s)| s.median).sum();
            put("core.execute_s", execute);
            put("core.unaccounted_s", unaccounted);
            put(
                "core.unaccounted_pct",
                Summary::single(ratio(unaccounted.median, execute.median) * 100.0),
            );
            for (name, summary) in phases {
                put(name, summary);
            }
            put(
                "mapreduce.phases_share_pct",
                Summary::single(ratio(phase_total, wall) * 100.0),
            );
            let m = &facts.metrics;
            put(
                "core.predicted_records",
                Summary::single(facts.predicted_records),
            );
            put(
                "core.prediction_error",
                Summary::single(ratio(facts.predicted_records, m.shuffle_records as f64) - 1.0),
            );
            for (name, value) in [
                ("mapreduce.shuffle_records", m.shuffle_records as f64),
                ("mapreduce.shuffle_bytes", m.shuffle_bytes as f64),
                (
                    "mapreduce.records_per_s",
                    ratio(m.shuffle_records as f64, execute.median),
                ),
                ("mapreduce.spilled_bytes", m.spilled_bytes as f64),
                ("mapreduce.spill_runs", m.spill_runs as f64),
                ("mapreduce.spill_read_s", m.spill_read_secs.as_secs_f64()),
                ("mapreduce.reducers_used", m.reducers_used as f64),
                ("mapreduce.max_reducer_input", m.max_reducer_input as f64),
                ("mapreduce.skew", m.skew()),
                ("mapreduce.reducer_work", m.reducer_work as f64),
            ] {
                put(name, Summary::single(value));
            }
            let (encode, decode) = varint_mb_per_s(&graph, m.shuffle_bytes);
            put("codec.varint_encode_mb_s", Summary::single(encode));
            put("codec.varint_decode_mb_s", Summary::single(decode));

            // The same query planned for one reducer: what the serial kernel
            // would have cost, and so what the planner's choice cost beyond it.
            let serial = EnumerationRequest::resolve(batch.pattern, &graph)?
                .reducers(1)
                .engine(EngineConfig::serial())
                .plan()?;
            let (_, serial_s) = seconds(|| black_box(serial.count().count()));
            put("core.serial_kernel_s", Summary::single(serial_s));
            put(
                "core.regret_vs_serial",
                Summary::single(ratio(execute.median, serial_s)),
            );
            let engine = engine_config(batch, &runner.fixture, runner.threads);
            let planned = EnumerationRequest::resolve(batch.pattern, &graph)?
                .reducers(REDUCERS)
                .engine(engine.clone())
                .plan()?;
            if let (StrategyKind::BucketOriented, Some(buckets)) =
                (planned.strategy(), planned.chosen().buckets)
            {
                // The chosen round with no CQ to evaluate: the same keys and
                // records through map+encode, exchange, decode+group and the
                // reducers' local-graph build, without the join. What is left
                // of `core.execute_s` is the reduce kernel.
                let p = planned.request().sample().num_nodes();
                let (_, shuffle_s) = seconds(|| {
                    bucket_oriented_with_cqs_into(
                        p,
                        &[],
                        &graph,
                        buckets,
                        &engine,
                        &mut CountSink::new(),
                    )
                });
                put("mapreduce.shuffle_only_s", Summary::single(shuffle_s));
                put(
                    "mapreduce.shuffle_share_pct",
                    Summary::single(ratio(shuffle_s, wall) * 100.0),
                );
                put(
                    "core.reduce_kernel_s",
                    Summary::single((execute.median - shuffle_s).max(0.0)),
                );
            }
            if batch.mode == Mode::Enumerate {
                // The same plan into a counting sink: the rest is the sink.
                let (_, count_s) = seconds(|| black_box(planned.count().count()));
                let sink_s = (execute.median - count_s).max(0.0);
                put("core.sink_s", Summary::single(sink_s));
                put("core.sink_bytes", Summary::single(facts.sink_bytes as f64));
                put(
                    "core.sink_mb_s",
                    Summary::single(ratio(facts.sink_bytes as f64 / 1e6, sink_s)),
                );
            }
            if batch.memory_budget.is_none() && batch.mode == Mode::Count && batch.binary {
                let (startup, oneshot) = cli_probes(&runner.fixture.graph, batch)?;
                put("cli.startup_s", startup);
                put(
                    "cli.oneshot_overhead_s",
                    Summary::single(oneshot - wall_of(false)),
                );
            }
        }
        Kind::PlanSweep => {
            for (name, secs) in planner_probes()? {
                put(name, Summary::single(secs));
            }
        }
        Kind::Serve => unreachable!("handled above"),
    }
    Ok(())
}

/// Sums every edge of a freshly opened `.sgr` once: the page faults the
/// microsecond-scale open deferred.
fn first_touch_seconds(path: &Path) -> Result<f64, Error> {
    let graph: DataGraph = GraphSource::file(path).load()?;
    let (_, secs) = seconds(|| {
        let sum: u64 = graph
            .edges()
            .iter()
            .map(|e| u64::from(e.lo()) + u64::from(e.hi()))
            .sum();
        black_box(sum)
    });
    Ok(secs)
}

/// Varint encode and decode throughput (MB/s) over a stream of node ids
/// drawn from the graph's edges, as long as the shuffle payload but capped
/// at 32 MB so the probe stays a fraction of a repetition.
fn varint_mb_per_s(graph: &DataGraph, shuffle_bytes: u64) -> (f64, f64) {
    let target = shuffle_bytes.clamp(1 << 20, 32 << 20) as usize;
    let mut stream = Vec::with_capacity(target + 16);
    let (values, encode_s) = seconds(|| {
        let mut values = 0usize;
        let mut edges = graph.edges().iter().cycle();
        while stream.len() < target {
            let edge = edges.next().expect("graph has edges");
            subgraph_codec::write_varint(&mut stream, u64::from(edge.lo()));
            subgraph_codec::write_varint(&mut stream, u64::from(edge.hi()));
            values += 2;
        }
        values
    });
    let (_, decode_s) = seconds(|| {
        let mut pos = 0;
        let mut sum = 0u64;
        for _ in 0..values {
            sum = sum.wrapping_add(subgraph_codec::read_varint(&stream, &mut pos));
        }
        black_box(sum)
    });
    let mb = stream.len() as f64 / 1e6;
    (ratio(mb, encode_s), ratio(mb, decode_s))
}

/// What a one-shot CLI user pays beyond the query: process start-up
/// (`subgraph catalog`, five times) and one whole `subgraph count` on the
/// fixture, through the same `subgraph_cli::run_main` the binary calls.
fn cli_probes(graph: &Path, batch: &Batch) -> Result<(Summary, f64), Error> {
    let cli = |args: &[&str]| -> Result<f64, Error> {
        let (status, secs) = seconds(|| {
            Command::new(std::env::current_exe()?)
                .arg("cli")
                .args(args)
                .stdout(Stdio::null())
                .status()
        });
        if !status?.success() {
            return Err(format!("subgraph {args:?} failed").into());
        }
        Ok(secs)
    };
    let mut startups = Vec::new();
    for _ in 0..5 {
        startups.push(cli(&["catalog"])?);
    }
    let reducers = REDUCERS.to_string();
    let oneshot = cli(&[
        "count",
        "--input",
        &graph.to_string_lossy(),
        "--pattern",
        batch.pattern,
        "--reducers",
        &reducers,
    ])?;
    Ok((Summary::of(&startups), oneshot))
}

/// Times the planner's layers by calling each crate's public function
/// directly for every sweep pattern.
fn planner_probes() -> Result<Vec<(&'static str, f64)>, Error> {
    use subgraph_pattern::{automorphism_group, catalog};
    let patterns = crate::spec::sweep_patterns();
    let (samples, resolve_s) = seconds(|| {
        patterns
            .iter()
            .map(|name| catalog::by_name(name))
            .collect::<Option<Vec<_>>>()
    });
    let samples = samples.ok_or("unknown sweep pattern")?;
    let (_, aut_s) = seconds(|| {
        for sample in &samples {
            black_box(automorphism_group(sample).len());
        }
    });
    let (_, classes_s) = seconds(|| {
        for sample in &samples {
            black_box(subgraph_pattern::order_representatives(sample).len());
        }
    });
    let (_, solve_s) = seconds(|| {
        for sample in &samples {
            let identity: Vec<_> = sample.nodes().collect();
            let cq = subgraph_cq::cq_for_ordering(sample, &identity);
            let expression = subgraph_shares::CostExpression::from_single_cq(&cq);
            black_box(subgraph_shares::optimize_shares(&expression, REDUCERS as f64).cost_per_edge);
        }
    });
    Ok(vec![
        ("pattern.resolve_s", resolve_s),
        ("pattern.aut_s", aut_s),
        ("cq.order_classes_s", classes_s),
        ("shares.solve_s", solve_s),
    ])
}

fn serve_layers(server: &Server, put: &mut impl FnMut(&'static str, Summary)) -> Result<(), Error> {
    let store = server.handle.engine().store();
    put(
        "graph.load_s",
        Summary::single(store.load_time().as_secs_f64()),
    );
    put(
        "graph.load_medges_s",
        Summary::single(ratio(
            store.stats().num_edges as f64 / 1e6,
            store.load_time().as_secs_f64(),
        )),
    );
    let of_class = |class: Class| {
        let ms: Vec<f64> = server
            .replies
            .iter()
            .filter(|reply| reply.class == class)
            .map(|reply| reply.secs * 1e3)
            .collect();
        Summary::of(&ms)
    };
    put("serve.light_p50_ms", of_class(Class::Light));
    put("serve.stream_p50_ms", of_class(Class::Stream));
    put("serve.heavy_p50_ms", of_class(Class::Heavy));
    let all: Vec<f64> = server.replies.iter().map(|r| r.secs * 1e3).collect();
    let all = sorted(&all);
    let (p99, _) = tail_percentile(&all, 0.99, 10);
    put("serve.lat_p99_ms", Summary::point(p99, all.len()));
    // What the client waits beyond the engine's own time: connect, request
    // parse, response framing, close.
    let overhead: Vec<f64> = server
        .replies
        .iter()
        .filter(|reply| reply.class == Class::Light)
        .filter_map(|reply| Some(reply.secs * 1e3 - reply.engine_micros? / 1e3))
        .collect();
    put("serve.http_overhead_ms", Summary::of(&overhead));

    let addr = server
        .handle
        .tcp_addr()
        .ok_or("server has no tcp address")?;
    let stats = client::get(&addr, "/stats")?.text();
    let stat = |key: &str| serve_mix::json_number(&stats, key).unwrap_or(0.0);
    put(
        "serve.plan_cache_hit_ratio",
        Summary::single(ratio(stat("hits"), stat("hits") + stat("misses"))),
    );
    put("serve.queries_ok", Summary::single(stat("queries_ok")));
    put(
        "serve.client_errors",
        Summary::single(stat("client_errors")),
    );
    put("serve.io_errors", Summary::single(stat("io_errors")));
    Ok(())
}
