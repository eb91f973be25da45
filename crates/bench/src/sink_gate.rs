//! What serializing costs a run: the bucket-oriented triangle plan enumerated
//! to ndjson against the same plan counted.
//!
//! The text sinks format on the reduce workers, so an enumerate run should
//! cost a count run plus its share of parallel formatting and one write per
//! worker — not a serial replay of every instance after the reduce phase.
//! `reproduce sink-gate` is *relative*: both sides run the same map, shuffle
//! and join on the same host, alternating, so a busy runner slows both
//! alike. It is also *exact*: the bytes written must hold one line per
//! instance the serial oracle finds.

use crate::report::Table;
use std::io::{self, Write};
use std::time::Instant;
use subgraph_core::plan::{EnumerationRequest, ExecutionPlan, StrategyKind};
use subgraph_core::sink::{NdjsonSink, SerializeSink};
use subgraph_graph::generators;
use subgraph_pattern::catalog;

/// How many times a count run the ndjson run of the same plan may take.
pub const MAX_ENUMERATE_OVER_COUNT: f64 = 2.0;

/// Alternating count / enumerate pairs; the gate compares the medians.
const PAIRS: usize = 5;

/// Discards what it is given, keeping the byte and line totals.
#[derive(Default)]
struct CountingWriter {
    bytes: usize,
    lines: usize,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes += buf.len();
        self.lines += buf.iter().filter(|&&byte| byte == b'\n').count();
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn median(mut secs: Vec<f64>) -> f64 {
    secs.sort_by(f64::total_cmp);
    secs[secs.len() / 2]
}

/// One run of `plan` into an [`NdjsonSink`] over a `BufWriter`, the way the
/// CLI hands it a file: seconds, and what reached the writer.
fn enumerate_ndjson(plan: &ExecutionPlan<'_>) -> (f64, CountingWriter) {
    let mut out = CountingWriter::default();
    let start = Instant::now();
    let mut sink = NdjsonSink::new(io::BufWriter::new(&mut out));
    plan.run_with_sink(&mut sink);
    sink.finish().expect("a counting writer cannot fail");
    (start.elapsed().as_secs_f64(), out)
}

/// The CI sink gate: on a fixed-seed power-law graph the ndjson run must
/// write exactly as many lines as the serial oracle counts instances, and
/// its median time must be within [`MAX_ENUMERATE_OVER_COUNT`] of the count
/// run's (release builds, hosts with more than one core).
pub fn sink_gate() -> Result<String, String> {
    let graph = generators::power_law(32_000, 160_000, 2.2, 5);
    let request = EnumerationRequest::new(catalog::triangle(), &graph);
    let oracle = request
        .clone()
        .reducers(1)
        .plan()
        .expect("a serial triangle plan")
        .count()
        .count();
    let plan = request
        .reducers(64)
        .strategy(StrategyKind::BucketOriented)
        .plan()
        .expect("bucket-oriented applies to triangles");

    let (mut count_secs, mut enumerate_secs) = (Vec::new(), Vec::new());
    let mut written = CountingWriter::default();
    for _ in 0..PAIRS {
        let start = Instant::now();
        let counted = plan.count().count();
        count_secs.push(start.elapsed().as_secs_f64());
        let (secs, out) = enumerate_ndjson(&plan);
        enumerate_secs.push(secs);
        written = out;
        if counted != oracle || written.lines != oracle {
            return Err(format!(
                "sink gate FAILED: the serial oracle finds {oracle} triangles, the plan counts \
                 {counted} and writes {} lines\n",
                written.lines,
            ));
        }
    }
    let (count, enumerate) = (median(count_secs), median(enumerate_secs));
    let ratio = enumerate / count;
    let cores = std::thread::available_parallelism().map_or(1, usize::from);

    let mut table = Table::new(
        "Sink gate — triangle enumerate to ndjson vs count, bucket-oriented, 64 reducers",
        &[
            "edges",
            "instances",
            "bytes",
            "count ms",
            "ndjson ms",
            "ratio",
        ],
    );
    table.row(&[
        graph.num_edges().to_string(),
        oracle.to_string(),
        written.bytes.to_string(),
        format!("{:.1}", count * 1e3),
        format!("{:.1}", enumerate * 1e3),
        format!("{ratio:.2}x"),
    ]);
    table.note(&format!(
        "medians of {PAIRS} alternating runs; host available_parallelism = {cores}"
    ));
    let mut out = table.render();
    if cfg!(debug_assertions) || cores < 2 {
        out.push_str(&format!(
            "\nsink gate: ratio bound skipped ({}); line count checked against the oracle\n",
            if cores < 2 {
                "one core: nothing formats in parallel"
            } else {
                "debug build"
            },
        ));
        return Ok(out);
    }
    if ratio > MAX_ENUMERATE_OVER_COUNT {
        return Err(format!(
            "{out}\nsink gate FAILED: enumerating to ndjson takes {ratio:.2}x the count run, \
             above the {MAX_ENUMERATE_OVER_COUNT}x bound\n",
        ));
    }
    out.push_str(&format!(
        "\nsink gate passed: ndjson {ratio:.2}x the count run (bound \
         {MAX_ENUMERATE_OVER_COUNT}x), {oracle} lines as the oracle counts\n",
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_counting_writer_sees_one_line_per_instance() {
        let graph = generators::power_law(300, 1_500, 2.2, 5);
        let plan = EnumerationRequest::new(catalog::triangle(), &graph)
            .reducers(64)
            .strategy(StrategyKind::BucketOriented)
            .plan()
            .expect("bucket-oriented applies to triangles");
        let (_, out) = enumerate_ndjson(&plan);
        assert_eq!(out.lines, plan.count().count());
        assert!(out.bytes > 40 * out.lines, "a triangle line is 40+ bytes");
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
    }
}
