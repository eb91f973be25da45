//! Fixtures: the generated input files of one workload and the oracle
//! answers every repetition is checked against.
//!
//! A fixture is built by a child process of its own, so the process that
//! runs the queries never holds the generator's memory, and the program
//! under test receives only the files written here.

use crate::spec::{sweep_patterns, Kind, Mode, Workload};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use subgraph_core::plan::EnumerationRequest;
use subgraph_core::sink::{CsvSink, NdjsonSink, SerializeSink};
use subgraph_graph::io::write_edge_list_file;
use subgraph_graph::{write_sgr_file, DataGraph, GraphSource};
use subgraph_mapreduce::EngineConfig;
use subgraph_pattern::{automorphism_group, catalog};

pub type Error = Box<dyn std::error::Error + Send + Sync>;

/// The inline spec of the `stream` request class (the triangle, spelled out).
pub const STREAM_PATTERN: &str = "a-b,b-c,c-a";

/// A `Write` that keeps only a line count and an order-independent hash of
/// the lines: the wrapping sum of each line's FNV-1a. Parallel runs deliver
/// the same instances in another order than the serial oracle does.
#[derive(Default)]
pub struct LineHasher {
    pub lines: usize,
    pub hash: u64,
    line: Option<u64>,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Write for LineHasher {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        for &byte in buf {
            if byte == b'\n' {
                self.hash = self
                    .hash
                    .wrapping_add(self.line.take().unwrap_or(FNV_OFFSET));
                self.lines += 1;
            } else {
                let line = self.line.unwrap_or(FNV_OFFSET);
                self.line = Some((line ^ u64::from(byte)).wrapping_mul(FNV_PRIME));
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The expected plan of one `plan_sweep` pattern.
#[derive(Clone, Debug, PartialEq)]
pub struct ExpectedPlan {
    pub pattern: String,
    pub strategy: String,
    /// `p!/|Aut|` (Theorem 3.1), computed from the automorphism group.
    pub order_classes: usize,
}

/// What a correct run of the workload produces.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Oracle {
    /// Instances of the pattern, by the serial strategy (`reducers = 1`).
    pub count: usize,
    /// Lines and line hash of the serialized output (enumerate paths only).
    pub lines: usize,
    pub hash: u64,
    pub plans: Vec<ExpectedPlan>,
}

impl Oracle {
    fn write(&self, path: &Path) -> io::Result<()> {
        let mut text = format!(
            "count={}\nlines={}\nhash={}\n",
            self.count, self.lines, self.hash
        );
        for plan in &self.plans {
            text.push_str(&format!(
                "plan={} {} {}\n",
                plan.pattern, plan.strategy, plan.order_classes
            ));
        }
        std::fs::write(path, text)
    }

    fn read(path: &Path) -> Result<Oracle, Error> {
        let mut oracle = Oracle::default();
        for line in std::fs::read_to_string(path)?.lines() {
            let (key, value) = line.split_once('=').ok_or("oracle line without '='")?;
            match key {
                "count" => oracle.count = value.parse()?,
                "lines" => oracle.lines = value.parse()?,
                "hash" => oracle.hash = value.parse()?,
                "plan" => {
                    let mut fields = value.split(' ');
                    let mut field = || fields.next().ok_or("short plan line");
                    oracle.plans.push(ExpectedPlan {
                        pattern: field()?.to_string(),
                        strategy: field()?.to_string(),
                        order_classes: field()?.parse()?,
                    });
                }
                other => return Err(format!("unknown oracle key {other:?}").into()),
            }
        }
        Ok(oracle)
    }
}

/// The files of one built fixture.
pub struct Fixture {
    pub dir: PathBuf,
    pub graph: PathBuf,
    pub oracle: Oracle,
}

fn graph_path(workload: &Workload, dir: &Path) -> PathBuf {
    let binary = match &workload.kind {
        Kind::Batch(batch) => batch.binary,
        Kind::Serve => false,
        Kind::PlanSweep => true,
    };
    dir.join(if binary { "graph.sgr" } else { "graph.txt" })
}

impl Fixture {
    pub fn open(workload: &Workload, dir: &Path) -> Result<Fixture, Error> {
        Ok(Fixture {
            dir: dir.to_path_buf(),
            graph: graph_path(workload, dir),
            oracle: Oracle::read(&dir.join("oracle.txt"))?,
        })
    }
}

fn serial_request<'g>(
    pattern: &str,
    graph: &'g DataGraph,
) -> Result<EnumerationRequest<'g>, Error> {
    Ok(EnumerationRequest::resolve(pattern, graph)?
        .reducers(1)
        .engine(EngineConfig::serial()))
}

/// Builds the fixture of `workload` for `seed` in `dir`: generates the graph,
/// writes it in the format the workload reads, and computes the oracle.
pub fn build(workload: &Workload, seed: u64, dir: &Path) -> Result<(), Error> {
    std::fs::create_dir_all(dir)?;
    let spec = workload.generator.replace("{seed}", &seed.to_string());
    let graph = GraphSource::parse_generator(&spec)?.load()?;
    let path = graph_path(workload, dir);
    if path.extension().is_some_and(|ext| ext == "sgr") {
        write_sgr_file(&graph, &path)?;
    } else {
        write_edge_list_file(&graph, &path)?;
    }
    let mut oracle = Oracle::default();
    match &workload.kind {
        Kind::Batch(batch) => {
            let plan = serial_request(batch.pattern, &graph)?.plan()?;
            if batch.mode == Mode::Enumerate {
                let mut hasher = LineHasher::default();
                let mut sink = NdjsonSink::new(&mut hasher);
                oracle.count = plan.run_with_sink(&mut sink).count();
                sink.finish()?;
                (oracle.lines, oracle.hash) = (hasher.lines, hasher.hash);
            } else {
                oracle.count = plan.count().count();
            }
        }
        Kind::Serve => {
            let plan = serial_request(STREAM_PATTERN, &graph)?.plan()?;
            let mut hasher = LineHasher::default();
            let mut sink = CsvSink::new(&mut hasher);
            oracle.count = plan.run_with_sink(&mut sink).count();
            sink.finish()?;
            (oracle.lines, oracle.hash) = (hasher.lines, hasher.hash);
        }
        Kind::PlanSweep => {
            for pattern in sweep_patterns() {
                let sample = catalog::by_name(&pattern).ok_or("unknown sweep pattern")?;
                let factorial: usize = (1..=sample.num_nodes()).product();
                let plan = EnumerationRequest::resolve(&pattern, &graph)?.plan()?;
                oracle.plans.push(ExpectedPlan {
                    pattern,
                    strategy: plan.strategy().to_string(),
                    order_classes: factorial / automorphism_group(&sample).len(),
                });
            }
        }
    }
    oracle.write(&dir.join("oracle.txt"))?;
    Ok(())
}

/// Line count and line hash of a file a repetition wrote.
pub fn hash_file(path: &Path) -> io::Result<(usize, u64)> {
    let mut hasher = LineHasher::default();
    io::copy(&mut std::fs::File::open(path)?, &mut hasher)?;
    Ok((hasher.lines, hasher.hash))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_hash_ignores_line_order_but_not_content() {
        let hash = |text: &str| {
            let mut hasher = LineHasher::default();
            hasher.write_all(text.as_bytes()).unwrap();
            (hasher.lines, hasher.hash)
        };
        assert_eq!(hash("a,b\nc,d\n\n"), hash("\nc,d\na,b\n"));
        assert_eq!(hash("a,b\nc,d\n").0, 2);
        assert_ne!(hash("a,b\nc,d\n"), hash("a,b\nc,e\n"));
        assert_ne!(hash("ab\n"), hash("a\nb\n"));
    }

    #[test]
    fn oracle_round_trips_through_its_file() {
        let oracle = Oracle {
            count: 45,
            lines: 46,
            hash: u64::MAX - 3,
            plans: vec![ExpectedPlan {
                pattern: "star10".to_string(),
                strategy: "bucket-oriented".to_string(),
                order_classes: 10,
            }],
        };
        let dir = std::env::temp_dir().join(format!("bench-oracle-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("oracle.txt");
        oracle.write(&path).unwrap();
        assert_eq!(Oracle::read(&path).unwrap(), oracle);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
