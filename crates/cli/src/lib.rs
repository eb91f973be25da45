//! The `subgraph` command-line tool: the dataset-to-output path of the whole
//! workspace.
//!
//! The paper's motivating workload is enumerating sample-graph instances in
//! real social-network snapshots; this crate is the entry point that actually
//! takes an edge-list file (or a generator spec) and produces instances.
//! Four subcommands wire the stack end-to-end:
//!
//! * `enumerate` — load a [`GraphSource`], plan an
//!   [`EnumerationRequest`] for a catalog pattern, and stream every instance
//!   through a serializing sink ([`NdjsonSink`], [`CsvSink`],
//!   [`EdgeListSink`]) to a file or stdout. No `Vec<Instance>` is ever
//!   materialized: a serial plan writes record by record, and on a
//!   map-reduce plan each reduce worker formats its instances into a byte
//!   buffer that is written when the round ends (O(output bytes) held).
//! * `count` — the same plan through the zero-allocation
//!   [`subgraph_core::CountSink`] path: one number out, O(1) result memory.
//! * `explain` — print the planner's cost table
//!   ([`subgraph_core::ExecutionPlan::explain`]) for a request *without*
//!   running it.
//! * `catalog` — list every named pattern with node/edge counts and
//!   automorphism group sizes ([`subgraph_pattern::catalog::entries`]).
//! * `serve` — start the long-lived query service
//!   ([`subgraph_serve`]): load the graph once, then answer `count` and
//!   `enumerate` queries over HTTP with a shared plan cache.
//!
//! Two helpers round out the set: `generate` materializes any graph spec as
//! an edge-list file so the other subcommands (and external tools) have
//! something to read, and `convert` re-encodes any graph source as a binary
//! `.sgr` container ([`subgraph_graph::sgr`]) that loads back zero-copy via
//! `mmap` — every subcommand accepts `.sgr` files transparently because
//! [`GraphSource`] sniffs the format from the file's first bytes.
//!
//! Patterns are either catalog names (`triangle`, `k4`, …), inline edge
//! specs (`--pattern a-b,b-c,c-a`), or files holding a spec
//! (`--pattern-file query.pat`: one edge per line, `#` comments), resolved
//! by [`EnumerationRequest::resolve`].
//!
//! The crate is a thin library plus a `main` shim so that the bench harness
//! and the integration tests drive exactly the code the binary runs:
//!
//! ```
//! use subgraph_cli::{run, Command};
//!
//! let cmd = Command::parse(&["count", "--generate", "gnp:60,0.1,7", "--pattern", "triangle"])
//!     .unwrap();
//! let mut stdout = Vec::new();
//! run(&cmd, &mut stdout).unwrap();
//! let printed: usize = String::from_utf8(stdout).unwrap().trim().parse().unwrap();
//! assert!(printed > 0);
//! ```

use std::fmt;
use std::io::{self, Write};
use std::path::PathBuf;
use std::time::Duration;

use subgraph_core::sink::{SerializeSink, TextFormat, TextSink};
use subgraph_core::{
    CsvSink, EdgeListSink, EnumerationRequest, NdjsonSink, PlanError, RunReport, StrategyKind,
};
use subgraph_graph::io::write_edge_list;
use subgraph_graph::{write_sgr_file, DataGraph, GraphSource, ReadStats, SourceError};
use subgraph_mapreduce::EngineConfig;
use subgraph_pattern::catalog;
use subgraph_serve::{GraphStore, QueryEngine, ServerConfig};

/// Output serialization of `enumerate`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// One JSON object per line (`{"nodes":[…],"edges":[[u,v],…]}`).
    Ndjson,
    /// CSV with a `nodes,edges` header.
    Csv,
    /// Edge-list dialect: `# instance k` comments plus `u v` lines.
    EdgeList,
}

impl Format {
    fn parse(name: &str) -> Option<Format> {
        match name {
            "ndjson" => Some(Format::Ndjson),
            "csv" => Some(Format::Csv),
            "edges" | "edge-list" => Some(Format::EdgeList),
            _ => None,
        }
    }
}

/// Everything `enumerate`, `count` and `explain` share: which graph, which
/// pattern, and how to plan/run the request.
#[derive(Clone, Debug)]
pub struct RequestOpts {
    /// Where the data graph comes from.
    pub source: GraphSource,
    /// Catalog pattern name (`triangle`, `c5`, `k4`, …) or inline edge spec
    /// (`a-b,b-c,c-a`).
    pub pattern: String,
    /// Reducer budget `k` (defaults to
    /// [`subgraph_core::plan::request::DEFAULT_REDUCERS`]).
    pub reducers: Option<usize>,
    /// Worker threads for the engine (defaults to available parallelism).
    pub threads: Option<usize>,
    /// Resident-memory budget in bytes for the shuffle (`--memory-budget`);
    /// `None` or 0 keeps everything in memory.
    pub memory_budget: Option<usize>,
    /// Base directory for spill run files (`--spill-dir`); `None` uses the
    /// OS temp dir.
    pub spill_dir: Option<PathBuf>,
    /// Force a strategy instead of letting the planner choose.
    pub strategy: Option<StrategyKind>,
}

impl RequestOpts {
    fn load_graph(&self) -> Result<(DataGraph, Option<ReadStats>), CliError> {
        Ok(self.source.load_with_stats()?)
    }

    fn request<'g>(&self, graph: &'g DataGraph) -> Result<EnumerationRequest<'g>, CliError> {
        let mut request =
            EnumerationRequest::resolve(&self.pattern, graph).map_err(|e| match e {
                PlanError::UnknownPattern(name) => CliError::Run(format!(
                    "unknown pattern {name:?} — run `subgraph catalog` for the list, \
                 or give an inline spec like a-b,b-c,c-a"
                )),
                other => CliError::from(other),
            })?;
        if let Some(k) = self.reducers {
            request = request.reducers(k);
        }
        if self.threads.is_some() || self.memory_budget.is_some() || self.spill_dir.is_some() {
            let mut engine = match self.threads {
                Some(t) => EngineConfig::with_threads(t),
                None => EngineConfig::default(),
            };
            if let Some(bytes) = self.memory_budget {
                engine = engine.memory_budget(bytes);
            }
            if let Some(dir) = &self.spill_dir {
                engine = engine.spill_dir(dir.clone());
            }
            // Fail fast on an unusable spill dir — before planning, not as a
            // mid-round panic.
            engine.validate_spill_dir().map_err(CliError::Run)?;
            request = request.engine(engine);
        }
        if let Some(kind) = self.strategy {
            request = request.strategy(kind);
        }
        Ok(request)
    }
}

/// A parsed `subgraph` invocation.
#[derive(Clone, Debug)]
pub enum Command {
    /// Stream every instance to a writer in the chosen [`Format`].
    Enumerate {
        /// The request to run.
        opts: RequestOpts,
        /// Serialization format (default ndjson).
        format: Format,
        /// Output file; `None` streams to stdout.
        output: Option<PathBuf>,
        /// Print the run report to stderr afterwards.
        verbose: bool,
    },
    /// Count instances through the zero-allocation sink path.
    Count {
        /// The request to run.
        opts: RequestOpts,
        /// Print the run report to stderr after the count.
        verbose: bool,
    },
    /// Print the planner's cost table without running the request.
    Explain {
        /// The request to plan.
        opts: RequestOpts,
    },
    /// List the pattern catalog.
    Catalog,
    /// Start the long-lived query service over one shared graph.
    Serve {
        /// The data graph to serve.
        source: GraphSource,
        /// TCP listen address (default `127.0.0.1:7878`; port 0 picks one).
        listen: Option<String>,
        /// Unix-domain socket path (unix only; in addition to or instead of
        /// TCP).
        unix: Option<PathBuf>,
        /// Plan-cache capacity in entries (default 64; 0 disables caching).
        plan_cache: usize,
        /// Worker threads handling connections (default 4).
        pool: usize,
        /// Per-query engine thread budget (default 1).
        threads: usize,
        /// Per-query resident-memory budget in bytes for the shuffle
        /// (`--memory-budget`; 0 = unbounded).
        memory_budget: usize,
        /// Base directory for spill run files (`--spill-dir`; `None` uses
        /// the OS temp dir).
        spill_dir: Option<PathBuf>,
        /// Per-connection socket I/O timeout in seconds (default 30;
        /// 0 disables — a stalled client then holds its worker forever).
        timeout_secs: u64,
        /// Log every startup detail, including input hygiene counters.
        verbose: bool,
    },
    /// Materialize a graph source as an edge-list file.
    Generate {
        /// The graph to materialize (usually a generator spec).
        source: GraphSource,
        /// Output file; `None` streams to stdout.
        output: Option<PathBuf>,
    },
    /// Re-encode a graph source as a binary `.sgr` container.
    Convert {
        /// The graph to convert (a text edge list, a generator spec, or
        /// even an existing `.sgr` file to re-canonicalize).
        source: GraphSource,
        /// The `.sgr` file to write (required — the container is binary, so
        /// it never goes to stdout).
        output: PathBuf,
        /// Overwrite an existing output file (`--force`); without it an
        /// existing file is an error.
        force: bool,
        /// Also report input hygiene counters for text sources.
        verbose: bool,
    },
}

/// How an invocation failed, carrying the process exit code to use.
#[derive(Debug)]
pub enum CliError {
    /// Bad arguments (exit code 2): the message plus the usage text.
    Usage(String),
    /// A runtime failure (exit code 1): unreadable file, failing plan, I/O.
    Run(String),
    /// The downstream consumer closed stdout (`enumerate … | head`). Not a
    /// failure: the binary exits 0 without a message, like any well-behaved
    /// pipeline stage.
    BrokenPipe,
}

impl CliError {
    /// The conventional process exit code for this error.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Run(_) => 1,
            CliError::BrokenPipe => 0,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Run(msg) => write!(f, "{msg}"),
            CliError::BrokenPipe => write!(f, "broken pipe"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<SourceError> for CliError {
    fn from(e: SourceError) -> Self {
        CliError::Run(e.to_string())
    }
}

impl From<PlanError> for CliError {
    fn from(e: PlanError) -> Self {
        CliError::Run(e.to_string())
    }
}

impl From<io::Error> for CliError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::BrokenPipe {
            CliError::BrokenPipe
        } else {
            CliError::Run(format!("i/o error: {e}"))
        }
    }
}

/// The usage text `subgraph --help` (and every usage error) prints.
pub const USAGE: &str = "usage: subgraph <subcommand> [options]

subcommands:
  enumerate   stream every instance of a pattern to stdout or a file
  count       count instances (zero per-instance allocation)
  explain     print the planner's cost table without running anything
  catalog     list the named patterns
  serve       start a long-lived query service over one shared graph
  generate    write a graph spec out as an edge-list file
  convert     re-encode a graph source as a binary .sgr file (mmap-loadable)

input (enumerate / count / explain / serve / convert take exactly one):
  --input <file>        read a SNAP-style edge list (`u v` per line, # comments)
                        or a binary .sgr file — the format is sniffed from the
                        content, not the extension
  --graph <file>        alias of --input
  --generate <spec>     synthesize a graph: gnm:<n>,<m>[,seed]
                        gnp:<n>,<p>[,seed] | power-law:<n>,<m>,<gamma>[,seed]

request options:
  --pattern <p>         catalog pattern (see `subgraph catalog`) or inline
                        edge spec like a-b,b-c,c-a; required
  --pattern-file <f>    read the pattern spec from a file instead (one edge
                        per line or comma-separated, # comments)
  --reducers <k>        reducer budget the plan is optimized for (default 64;
                        <= 1 plans a serial algorithm)
  --threads <t>         engine worker threads (default: all cores;
                        for serve: per-query budget, default 1)
  --memory-budget <b>   budget for the shuffle's arena chunk bytes; past it
                        the engine spills them to disk (suffixes K/M/G, e.g.
                        512M, 2G; default 0 = unbounded, never touch disk).
                        Unmetered: per reduce thread, one bucket's decoded
                        groups and the local graph being joined; enumerate's
                        output of the buckets finished ahead of the oldest
                        unfinished one; one key's group is never split
  --spill-dir <dir>     where spill run files go (default: the OS temp dir;
                        always cleaned up, even on panic)
  --strategy <name>     force a strategy: bucket-oriented, variable-oriented,
                        cq-oriented, bucket-ordered-triangles,
                        partition-triangles, multiway-triangles,
                        cascade-triangles, serial-triangles, serial-join

output options:
  --format <fmt>        enumerate serialization: ndjson (default) | csv | edges
  --output <file>       write results there instead of stdout
  --force               convert only: overwrite an existing --output file
  --verbose             print the run report (and input hygiene) to stderr

serve options (see docs/SERVE.md):
  --listen <addr>       TCP listen address (default 127.0.0.1:7878; port 0
                        picks a free port)
  --unix <path>         also listen on a unix-domain socket (unix only)
  --plan-cache <n>      plan-cache capacity in entries (default 64; 0 = off)
  --pool <n>            connection worker threads (default 4)
  --timeout-secs <s>    per-connection socket I/O timeout (default 30; 0 = off)

examples:
  subgraph generate gnp:10000,0.002,7 --output graph.txt
  subgraph count --input graph.txt --pattern triangle
  subgraph enumerate --input graph.txt --pattern a-b,b-c,c-a --format ndjson
  subgraph explain --generate power-law:100000,500000,2.5 --pattern lollipop --reducers 750
  subgraph convert --input graph.txt --output graph.sgr
  subgraph serve --graph graph.sgr --listen 127.0.0.1:7878 --plan-cache 128
";

impl Command {
    /// Parses a full argument vector (without the program name).
    pub fn parse(args: &[&str]) -> Result<Command, CliError> {
        let usage = |msg: String| CliError::Usage(msg);
        let (sub, rest) = args
            .split_first()
            .ok_or_else(|| usage("missing subcommand".into()))?;
        // `subgraph --help` / `-h` / `help`: the empty usage message makes
        // `run_main` print the usage text on stdout and exit 0.
        if matches!(*sub, "--help" | "-h" | "help") {
            return Err(usage(String::new()));
        }

        // Uniform flag scan; each subcommand validates what applies to it.
        let mut input: Option<String> = None;
        let mut generate: Option<String> = None;
        let mut pattern: Option<String> = None;
        let mut pattern_file: Option<PathBuf> = None;
        let mut format: Option<String> = None;
        let mut output: Option<PathBuf> = None;
        let mut reducers: Option<usize> = None;
        let mut threads: Option<usize> = None;
        let mut memory_budget: Option<usize> = None;
        let mut spill_dir: Option<PathBuf> = None;
        let mut strategy: Option<String> = None;
        let mut listen: Option<String> = None;
        let mut unix: Option<PathBuf> = None;
        let mut plan_cache: Option<usize> = None;
        let mut pool: Option<usize> = None;
        let mut timeout_secs: Option<u64> = None;
        let mut force = false;
        let mut verbose = false;
        let mut positional: Vec<String> = Vec::new();

        let mut it = rest.iter();
        while let Some(&arg) = it.next() {
            let mut value = |flag: &str| -> Result<String, CliError> {
                it.next()
                    .map(|s| s.to_string())
                    .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))
            };
            match arg {
                "--input" => input = Some(value("--input")?),
                "--graph" => input = Some(value("--graph")?),
                "--generate" => generate = Some(value("--generate")?),
                "--pattern" => pattern = Some(value("--pattern")?),
                "--pattern-file" => pattern_file = Some(PathBuf::from(value("--pattern-file")?)),
                "--format" => format = Some(value("--format")?),
                "--output" | "-o" => output = Some(PathBuf::from(value("--output")?)),
                "--reducers" => {
                    reducers = Some(value("--reducers")?.parse().map_err(|_| {
                        CliError::Usage("--reducers needs a non-negative integer".into())
                    })?)
                }
                "--threads" => {
                    threads = Some(value("--threads")?.parse().map_err(|_| {
                        CliError::Usage("--threads needs a positive integer".into())
                    })?)
                }
                "--memory-budget" => {
                    memory_budget =
                        Some(parse_size(&value("--memory-budget")?).ok_or_else(|| {
                            CliError::Usage(
                                "--memory-budget needs a byte count like 512M or 2G \
                                 (suffixes K, M, G; 0 = unbounded)"
                                    .into(),
                            )
                        })?)
                }
                "--spill-dir" => spill_dir = Some(PathBuf::from(value("--spill-dir")?)),
                "--strategy" => strategy = Some(value("--strategy")?),
                "--listen" => listen = Some(value("--listen")?),
                "--unix" => unix = Some(PathBuf::from(value("--unix")?)),
                "--plan-cache" => {
                    plan_cache = Some(value("--plan-cache")?.parse().map_err(|_| {
                        CliError::Usage("--plan-cache needs a non-negative integer".into())
                    })?)
                }
                "--pool" => {
                    pool =
                        Some(value("--pool")?.parse::<usize>().map_err(|_| {
                            CliError::Usage("--pool needs a positive integer".into())
                        })?)
                }
                "--timeout-secs" => {
                    timeout_secs = Some(value("--timeout-secs")?.parse::<u64>().map_err(|_| {
                        CliError::Usage("--timeout-secs needs a non-negative integer".into())
                    })?)
                }
                "--force" => force = true,
                "--verbose" | "-v" => verbose = true,
                "--help" | "-h" => return Err(usage("".into())),
                flag if flag.starts_with('-') => {
                    return Err(usage(format!("unknown option {flag}")))
                }
                other => positional.push(other.to_string()),
            }
        }

        let graph_source = |need: &str| -> Result<GraphSource, CliError> {
            match (&input, &generate) {
                (Some(path), None) => Ok(GraphSource::file(path)),
                (None, Some(spec)) => {
                    GraphSource::parse_generator(spec).map_err(|e| CliError::Usage(e.to_string()))
                }
                (Some(_), Some(_)) => Err(CliError::Usage(
                    "--input and --generate are mutually exclusive".into(),
                )),
                (None, None) => Err(CliError::Usage(format!(
                    "{need} needs a graph: --input <file> or --generate <spec>"
                ))),
            }
        };

        let request_opts = |need: &str| -> Result<RequestOpts, CliError> {
            let source = graph_source(need)?;
            let pattern = match (&pattern, &pattern_file) {
                (Some(_), Some(_)) => {
                    return Err(CliError::Usage(
                        "--pattern and --pattern-file are mutually exclusive".into(),
                    ))
                }
                (Some(p), None) => p.clone(),
                // File dialect: one edge per line (or comma-separated),
                // `#` comments — normalized to the inline spec grammar.
                (None, Some(path)) => {
                    let text = std::fs::read_to_string(path).map_err(|e| {
                        CliError::Run(format!("cannot read pattern file {}: {e}", path.display()))
                    })?;
                    let spec = subgraph_pattern::normalize_spec_text(&text);
                    if spec.is_empty() {
                        return Err(CliError::Run(format!(
                            "pattern file {} holds no pattern (only comments or blank lines)",
                            path.display()
                        )));
                    }
                    spec
                }
                (None, None) => {
                    return Err(CliError::Usage(format!(
                        "{need} needs --pattern <name> or --pattern-file <file>"
                    )))
                }
            };
            let strategy = match &strategy {
                None => None,
                Some(name) => Some(parse_strategy(name).ok_or_else(|| {
                    CliError::Usage(format!(
                        "unknown strategy {name:?} (one of: {})",
                        strategy_names().join(", ")
                    ))
                })?),
            };
            Ok(RequestOpts {
                source,
                pattern,
                reducers,
                threads,
                memory_budget,
                spill_dir: spill_dir.clone(),
                strategy,
            })
        };

        let no_positionals = |sub: &str| -> Result<(), CliError> {
            if positional.is_empty() {
                Ok(())
            } else {
                Err(CliError::Usage(format!(
                    "{sub} takes no positional arguments (got {positional:?})"
                )))
            }
        };
        // A flag a subcommand does not consume is an error, not a silent
        // no-op (`count --output x` must not pretend a file was written).
        let reject = |sub: &str, flag: &str, given: bool| -> Result<(), CliError> {
            if given {
                Err(CliError::Usage(format!("{sub} does not take {flag}")))
            } else {
                Ok(())
            }
        };
        let no_serve_flags = |sub: &str| -> Result<(), CliError> {
            for (flag, given) in [
                ("--listen", listen.is_some()),
                ("--unix", unix.is_some()),
                ("--plan-cache", plan_cache.is_some()),
                ("--pool", pool.is_some()),
                ("--timeout-secs", timeout_secs.is_some()),
            ] {
                reject(sub, flag, given)?;
            }
            Ok(())
        };

        match *sub {
            "enumerate" => {
                no_positionals("enumerate")?;
                no_serve_flags("enumerate")?;
                reject("enumerate", "--force", force)?;
                let format = match &format {
                    None => Format::Ndjson,
                    Some(name) => Format::parse(name).ok_or_else(|| {
                        usage(format!(
                            "unknown format {name:?} (one of: ndjson, csv, edges)"
                        ))
                    })?,
                };
                Ok(Command::Enumerate {
                    opts: request_opts("enumerate")?,
                    format,
                    output,
                    verbose,
                })
            }
            "count" => {
                no_positionals("count")?;
                no_serve_flags("count")?;
                reject("count", "--format", format.is_some())?;
                reject("count", "--output", output.is_some())?;
                reject("count", "--force", force)?;
                Ok(Command::Count {
                    opts: request_opts("count")?,
                    verbose,
                })
            }
            "explain" => {
                no_positionals("explain")?;
                no_serve_flags("explain")?;
                reject("explain", "--format", format.is_some())?;
                reject("explain", "--output", output.is_some())?;
                reject("explain", "--force", force)?;
                reject("explain", "--verbose", verbose)?;
                Ok(Command::Explain {
                    opts: request_opts("explain")?,
                })
            }
            "catalog" => {
                no_positionals("catalog")?;
                no_serve_flags("catalog")?;
                for (flag, given) in [
                    ("--input", input.is_some()),
                    ("--generate", generate.is_some()),
                    ("--pattern", pattern.is_some()),
                    ("--pattern-file", pattern_file.is_some()),
                    ("--format", format.is_some()),
                    ("--output", output.is_some()),
                    ("--reducers", reducers.is_some()),
                    ("--threads", threads.is_some()),
                    ("--memory-budget", memory_budget.is_some()),
                    ("--spill-dir", spill_dir.is_some()),
                    ("--strategy", strategy.is_some()),
                    ("--force", force),
                    ("--verbose", verbose),
                ] {
                    reject("catalog", flag, given)?;
                }
                Ok(Command::Catalog)
            }
            "serve" => {
                no_positionals("serve")?;
                reject("serve", "--pattern", pattern.is_some())?;
                reject("serve", "--pattern-file", pattern_file.is_some())?;
                reject("serve", "--format", format.is_some())?;
                reject("serve", "--output", output.is_some())?;
                reject("serve", "--reducers", reducers.is_some())?;
                reject("serve", "--strategy", strategy.is_some())?;
                reject("serve", "--force", force)?;
                if matches!(threads, Some(0)) {
                    return Err(usage("--threads needs a positive integer".into()));
                }
                #[cfg(not(unix))]
                if unix.is_some() {
                    return Err(usage("--unix is only available on unix platforms".into()));
                }
                Ok(Command::Serve {
                    source: graph_source("serve")?,
                    listen,
                    unix,
                    plan_cache: plan_cache.unwrap_or(64),
                    pool: pool.unwrap_or(4).max(1),
                    threads: threads.unwrap_or(1),
                    memory_budget: memory_budget.unwrap_or(0),
                    spill_dir,
                    timeout_secs: timeout_secs.unwrap_or(30),
                    verbose,
                })
            }
            "generate" => {
                no_serve_flags("generate")?;
                for (flag, given) in [
                    ("--pattern", pattern.is_some()),
                    ("--pattern-file", pattern_file.is_some()),
                    ("--format", format.is_some()),
                    ("--reducers", reducers.is_some()),
                    ("--threads", threads.is_some()),
                    ("--memory-budget", memory_budget.is_some()),
                    ("--spill-dir", spill_dir.is_some()),
                    ("--strategy", strategy.is_some()),
                    ("--force", force),
                    ("--verbose", verbose),
                ] {
                    reject("generate", flag, given)?;
                }
                let source = match (positional.as_slice(), &generate, &input) {
                    ([spec], None, None) => spec
                        .parse::<GraphSource>()
                        .map_err(|e| usage(e.to_string()))?,
                    ([], Some(spec), None) => GraphSource::parse_generator(spec)
                        .map_err(|e| usage(e.to_string()))?,
                    ([], None, Some(path)) => GraphSource::file(path),
                    _ => {
                        return Err(usage(
                            "generate takes exactly one spec: `subgraph generate gnp:1000,0.01 [-o out.txt]`"
                                .into(),
                        ))
                    }
                };
                Ok(Command::Generate { source, output })
            }
            "convert" => {
                no_serve_flags("convert")?;
                for (flag, given) in [
                    ("--pattern", pattern.is_some()),
                    ("--pattern-file", pattern_file.is_some()),
                    ("--format", format.is_some()),
                    ("--reducers", reducers.is_some()),
                    ("--threads", threads.is_some()),
                    ("--memory-budget", memory_budget.is_some()),
                    ("--spill-dir", spill_dir.is_some()),
                    ("--strategy", strategy.is_some()),
                ] {
                    reject("convert", flag, given)?;
                }
                let source = match (positional.as_slice(), &generate, &input) {
                    ([spec], None, None) => spec
                        .parse::<GraphSource>()
                        .map_err(|e| usage(e.to_string()))?,
                    ([], Some(spec), None) => GraphSource::parse_generator(spec)
                        .map_err(|e| usage(e.to_string()))?,
                    ([], None, Some(path)) => GraphSource::file(path),
                    _ => {
                        return Err(usage(
                            "convert takes exactly one input: `subgraph convert --input g.txt -o g.sgr`"
                                .into(),
                        ))
                    }
                };
                let output = output.ok_or_else(|| {
                    usage("convert needs --output <file>: the .sgr container is binary".into())
                })?;
                Ok(Command::Convert {
                    source,
                    output,
                    force,
                    verbose,
                })
            }
            other => Err(usage(format!("unknown subcommand {other:?}"))),
        }
    }
}

/// Every forceable strategy name, in tie-breaking order.
pub fn strategy_names() -> Vec<String> {
    StrategyKind::all().iter().map(|k| k.to_string()).collect()
}

/// Parses a byte count with an optional binary suffix: `65536`, `64K`,
/// `512M`, `2G` (case-insensitive; K/M/G are 2^10/2^20/2^30). `0` means
/// unbounded for `--memory-budget`.
pub fn parse_size(text: &str) -> Option<usize> {
    let text = text.trim();
    let (digits, multiplier) = match text.chars().last()? {
        'k' | 'K' => (&text[..text.len() - 1], 1usize << 10),
        'm' | 'M' => (&text[..text.len() - 1], 1 << 20),
        'g' | 'G' => (&text[..text.len() - 1], 1 << 30),
        _ => (text, 1),
    };
    digits.parse::<usize>().ok()?.checked_mul(multiplier)
}

/// Resolves a strategy name as printed by [`StrategyKind`]'s `Display`.
pub fn parse_strategy(name: &str) -> Option<StrategyKind> {
    StrategyKind::all()
        .into_iter()
        .find(|k| k.to_string() == name)
}

/// What a streaming run produced, for `--verbose` reporting and the parity
/// checks.
#[derive(Debug)]
pub struct StreamSummary {
    /// Instances serialized to the writer.
    pub written: usize,
    /// The engine's run report (streamed mode: count + metrics, no
    /// instances).
    pub report: RunReport,
    /// Input hygiene counters, when the graph came from an edge-list file.
    pub read_stats: Option<ReadStats>,
}

/// Runs `enumerate` against an arbitrary writer: plans the request, streams
/// every instance through the chosen serializing sink (no `Vec<Instance>`
/// anywhere), flushes, and returns the summary. This is the function both the
/// binary and the parity tests call.
pub fn enumerate_to_writer<W: Write + Send>(
    opts: &RequestOpts,
    format: Format,
    writer: W,
) -> Result<StreamSummary, CliError> {
    let (graph, read_stats) = opts.load_graph()?;
    let plan = opts.request(&graph)?.plan()?;
    let mut summary = stream_plan(&plan, format, writer)?;
    summary.read_stats = read_stats;
    Ok(summary)
}

/// Runs `enumerate` into a file. The input graph is loaded and the request
/// fully planned *before* the file is created, so a bad input or pattern
/// never truncates an existing output file; errors from the write phase name
/// the file.
pub fn enumerate_to_file(
    opts: &RequestOpts,
    format: Format,
    path: &std::path::Path,
) -> Result<StreamSummary, CliError> {
    let (graph, read_stats) = opts.load_graph()?;
    let plan = opts.request(&graph)?.plan()?;
    let file = std::fs::File::create(path)
        .map_err(|e| CliError::Run(format!("cannot create {}: {e}", path.display())))?;
    let mut summary = stream_plan(&plan, format, io::BufWriter::new(file))
        .map_err(|e| name_output_path(e, path))?;
    summary.read_stats = read_stats;
    Ok(summary)
}

/// Streams a planned enumeration through the serializing sink for `format`.
fn stream_plan<W: Write + Send>(
    plan: &subgraph_core::ExecutionPlan<'_>,
    format: Format,
    writer: W,
) -> Result<StreamSummary, CliError> {
    match format {
        Format::Ndjson => stream_text(plan, NdjsonSink::new(writer)),
        Format::Csv => stream_text(plan, CsvSink::new(writer)),
        Format::EdgeList => stream_text(plan, EdgeListSink::new(writer)),
    }
}

/// Runs `plan` into one text sink and finishes it.
fn stream_text<F: TextFormat, W: Write + Send>(
    plan: &subgraph_core::ExecutionPlan<'_>,
    mut sink: TextSink<F, W>,
) -> Result<StreamSummary, CliError> {
    let report = plan.run_with_sink(&mut sink);
    let written = sink.finish()?;
    debug_assert_eq!(written, report.count());
    Ok(StreamSummary {
        written,
        report,
        read_stats: None,
    })
}

/// Runs `count`: the zero-allocation [`subgraph_core::CountSink`] path.
/// Returns the run report plus input hygiene counters for file sources.
pub fn count_instances(opts: &RequestOpts) -> Result<(RunReport, Option<ReadStats>), CliError> {
    let (graph, read_stats) = opts.load_graph()?;
    let request = opts.request(&graph)?;
    Ok((request.plan()?.count(), read_stats))
}

/// Runs `explain`: plans without executing and returns the cost table.
pub fn explain_request(opts: &RequestOpts) -> Result<String, CliError> {
    let (graph, _) = opts.load_graph()?;
    let request = opts.request(&graph)?;
    Ok(request.plan()?.explain())
}

/// Renders the `catalog` table.
pub fn catalog_table() -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<22} {:>5} {:>5} {:>6} {:>6}  {}\n",
        "pattern", "nodes", "edges", "|Aut|", "CQs", "description"
    ));
    for entry in catalog::entries() {
        out.push_str(&format!(
            "{:<22} {:>5} {:>5} {:>6} {:>6}  {}\n",
            entry.name,
            entry.sample.num_nodes(),
            entry.sample.num_edges(),
            entry.automorphisms(),
            entry.order_classes(),
            entry.description,
        ));
    }
    out.push_str(
        "\nfamilies: cN/cycleN, kN/cliqueN, starN, pathN, hypercubeD (any size up to 16 nodes)\n",
    );
    out
}

/// Renders the input-hygiene line for `--verbose` feedback (empty for
/// generator sources, which have no file to clean).
fn render_hygiene(read_stats: &Option<ReadStats>) -> String {
    match read_stats {
        Some(rs) => format!("input hygiene: {rs}\n"),
        None => String::new(),
    }
}

/// Attaches `path` to a runtime error so write failures name the file being
/// written (broken pipes stay silent).
fn name_output_path(e: CliError, path: &std::path::Path) -> CliError {
    match e {
        CliError::Run(msg) => CliError::Run(format!("writing {}: {msg}", path.display())),
        other => other,
    }
}

/// Executes a parsed command, writing primary output to `stdout` (the real
/// stdout in the binary, a buffer in tests). `enumerate`/`generate` honour
/// `--output` by writing the payload to the file instead; everything the user
/// reads as *feedback* (verbose reports) goes to stderr in the binary shim,
/// returned here as the second tuple element. The writer is `Send` so
/// `enumerate` can stream into it directly (the engine's sinks deliver from
/// worker threads).
pub fn run(cmd: &Command, stdout: &mut (dyn Write + Send)) -> Result<Option<String>, CliError> {
    match cmd {
        Command::Catalog => {
            stdout.write_all(catalog_table().as_bytes())?;
            Ok(None)
        }
        Command::Explain { opts } => {
            stdout.write_all(explain_request(opts)?.as_bytes())?;
            Ok(None)
        }
        Command::Count { opts, verbose } => {
            let (report, read_stats) = count_instances(opts)?;
            writeln!(stdout, "{}", report.count())?;
            Ok(verbose.then(|| format!("{}{}", render_hygiene(&read_stats), report.render())))
        }
        Command::Enumerate {
            opts,
            format,
            output,
            verbose,
        } => {
            let summary = match output {
                Some(path) => enumerate_to_file(opts, *format, path)?,
                None => enumerate_to_writer(opts, *format, io::BufWriter::new(&mut *stdout))?,
            };
            Ok(verbose.then(|| {
                format!(
                    "{}{} instances written\n{}",
                    render_hygiene(&summary.read_stats),
                    summary.written,
                    summary.report.render()
                )
            }))
        }
        Command::Serve {
            source,
            listen,
            unix,
            plan_cache,
            pool,
            threads,
            memory_budget,
            spill_dir,
            timeout_secs,
            verbose,
        } => {
            // Fail fast on an unusable spill dir — at startup, not inside
            // the first budgeted query.
            {
                let mut probe = EngineConfig::default().memory_budget(*memory_budget);
                if let Some(dir) = spill_dir {
                    probe = probe.spill_dir(dir.clone());
                }
                probe.validate_spill_dir().map_err(CliError::Run)?;
            }
            let store = GraphStore::open(source)?;
            let engine = QueryEngine::new(store, *plan_cache, *threads)
                .with_memory_budget(*memory_budget, spill_dir.clone());
            let io_timeout = (*timeout_secs > 0).then(|| Duration::from_secs(*timeout_secs));
            let config = ServerConfig {
                listen: Some(
                    listen
                        .clone()
                        .unwrap_or_else(|| "127.0.0.1:7878".to_string()),
                ),
                #[cfg(unix)]
                unix_path: unix.clone(),
                pool: *pool,
                cache_capacity: *plan_cache,
                threads_per_query: *threads,
                memory_budget: *memory_budget,
                spill_dir: spill_dir.clone(),
                read_timeout: io_timeout,
                write_timeout: io_timeout,
            };
            #[cfg(not(unix))]
            let _ = unix;
            let handle = subgraph_serve::spawn(engine, &config)
                .map_err(|e| CliError::Run(format!("cannot start server: {e}")))?;
            writeln!(
                stdout,
                "{}",
                subgraph_serve::server::startup_banner(handle.engine(), &config, handle.tcp_addr())
            )?;
            if *verbose {
                writeln!(
                    stdout,
                    "stats fingerprint {:016x}; warm queries resume cached plans with zero re-planning",
                    handle.engine().store().fingerprint()
                )?;
            }
            stdout.flush()?;
            // Blocks until SIGINT/SIGTERM, then drains in-flight queries.
            let stop = subgraph_serve::install_signal_handlers();
            handle.run_until(stop);
            Ok(None)
        }
        Command::Generate { source, output } => {
            let (graph, stats) = source.load_with_stats()?;
            match output {
                Some(path) => {
                    let file = std::fs::File::create(path).map_err(|e| {
                        CliError::Run(format!("cannot create {}: {e}", path.display()))
                    })?;
                    let mut writer = io::BufWriter::new(file);
                    write_edge_list(&graph, &mut writer)
                        .and_then(|()| writer.flush())
                        .map_err(|e| name_output_path(CliError::from(e), path))?;
                }
                None => {
                    let mut writer = io::BufWriter::new(&mut *stdout);
                    write_edge_list(&graph, &mut writer)?;
                    writer.flush()?;
                }
            }
            let mut note = format!(
                "wrote {} nodes, {} edges from {source}",
                graph.num_nodes(),
                graph.num_edges()
            );
            if let Some(stats) = stats {
                note.push_str(&format!(
                    " (cleaned {} duplicate edges, {} self-loops)",
                    stats.duplicate_edges, stats.self_loops
                ));
            }
            Ok(Some(note))
        }
        Command::Convert {
            source,
            output,
            force,
            verbose,
        } => {
            // Refuse to clobber an existing file unless asked — checked
            // before the (possibly expensive) load, so the refusal is
            // instant.
            if !force && output.exists() {
                return Err(CliError::Run(format!(
                    "{} already exists (pass --force to overwrite)",
                    output.display()
                )));
            }
            let (graph, stats) = source.load_with_stats()?;
            // SgrError already names the file it was writing.
            write_sgr_file(&graph, output).map_err(|e| CliError::Run(e.to_string()))?;
            let bytes = std::fs::metadata(output).map(|m| m.len()).unwrap_or(0);
            let mut note = format!(
                "converted {source}: {} nodes, {} edges -> {} ({bytes} bytes, mmap-loadable)",
                graph.num_nodes(),
                graph.num_edges(),
                output.display()
            );
            if *verbose {
                if let Some(stats) = stats {
                    note.push_str(&format!("\ninput hygiene: {stats}"));
                }
            }
            Ok(Some(note))
        }
    }
}

/// The whole binary in one callable: parse, run, report. Returns the process
/// exit code. The binary's `main` is a one-line wrapper, so tests (and the
/// bench harness) can exercise exactly what the executable does.
pub fn run_main(args: &[&str]) -> i32 {
    let cmd = match Command::parse(args) {
        Ok(cmd) => cmd,
        Err(CliError::Usage(msg)) => {
            if msg.is_empty() {
                // --help: usage on stdout, success.
                print!("{USAGE}");
                return 0;
            }
            eprintln!("error: {msg}\n\n{USAGE}");
            return 2;
        }
        Err(e) => return report_error(e),
    };

    let mut stdout = io::stdout();
    match run(&cmd, &mut stdout) {
        Ok(feedback) => {
            if let Some(text) = feedback {
                eprint!("{text}");
                if !text.ends_with('\n') {
                    eprintln!();
                }
            }
            0
        }
        Err(e) => report_error(e),
    }
}

/// Prints a runtime error to stderr (silently for [`CliError::BrokenPipe`])
/// and returns the exit code.
fn report_error(e: CliError) -> i32 {
    if !matches!(e, CliError::BrokenPipe) {
        eprintln!("error: {e}");
    }
    e.exit_code()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Command {
        Command::parse(args).unwrap()
    }

    #[test]
    fn parses_enumerate_with_every_flag() {
        let cmd = parse(&[
            "enumerate",
            "--generate",
            "gnm:50,120,9",
            "--pattern",
            "triangle",
            "--format",
            "csv",
            "--output",
            "/tmp/out.csv",
            "--reducers",
            "27",
            "--threads",
            "2",
            "--strategy",
            "multiway-triangles",
            "--verbose",
        ]);
        match cmd {
            Command::Enumerate {
                opts,
                format,
                output,
                verbose,
            } => {
                assert_eq!(opts.pattern, "triangle");
                assert_eq!(opts.reducers, Some(27));
                assert_eq!(opts.threads, Some(2));
                assert_eq!(opts.strategy, Some(StrategyKind::MultiwayTriangles));
                assert_eq!(format, Format::Csv);
                assert_eq!(output, Some(PathBuf::from("/tmp/out.csv")));
                assert!(verbose);
            }
            other => panic!("expected Enumerate, got {other:?}"),
        }
    }

    #[test]
    fn usage_errors_are_specific() {
        let err = |args: &[&str]| match Command::parse(args) {
            Err(CliError::Usage(msg)) => msg,
            other => panic!("expected usage error, got {other:?}"),
        };
        assert!(err(&["count", "--pattern", "triangle"]).contains("--input"));
        assert!(err(&["count", "--generate", "gnp:9,0.5", "--input", "x"]).contains("mutually"));
        assert!(err(&["enumerate", "--generate", "gnp:9,0.5"]).contains("--pattern"));
        assert!(
            err(&["count", "--generate", "nope:1", "--pattern", "triangle"])
                .contains("unknown generator")
        );
        assert!(err(&["frobnicate"]).contains("unknown subcommand"));
        assert!(err(&["count", "--bogus"]).contains("unknown option"));
        assert!(err(&[
            "enumerate",
            "--generate",
            "gnp:9,0.5",
            "--pattern",
            "triangle",
            "--format",
            "xml"
        ])
        .contains("unknown format"));
        assert!(err(&[
            "count",
            "--generate",
            "gnp:9,0.5",
            "--pattern",
            "triangle",
            "--strategy",
            "quantum"
        ])
        .contains("unknown strategy"));
    }

    #[test]
    fn count_and_enumerate_agree_on_a_generated_graph() {
        let opts = RequestOpts {
            source: "gnp:60,0.1,7".parse().unwrap(),
            pattern: "triangle".to_string(),
            reducers: Some(16),
            threads: Some(2),
            memory_budget: None,
            spill_dir: None,
            strategy: None,
        };
        let (report, _) = count_instances(&opts).unwrap();
        let mut buf = Vec::new();
        let summary = enumerate_to_writer(&opts, Format::Ndjson, &mut buf).unwrap();
        assert_eq!(summary.written, report.count());
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), report.count());
        assert!(text.lines().all(|l| l.starts_with("{\"nodes\":[")));
    }

    #[test]
    fn explain_mentions_the_pattern_and_candidates() {
        let opts = RequestOpts {
            source: "gnm:60,300,9".parse().unwrap(),
            pattern: "lollipop".to_string(),
            reducers: Some(750),
            threads: None,
            memory_budget: None,
            spill_dir: None,
            strategy: None,
        };
        let text = explain_request(&opts).unwrap();
        assert!(text.contains("\"lollipop\""));
        assert!(text.contains("candidates (cheapest first):"));
        assert!(text.contains("bucket-oriented"));
    }

    #[test]
    fn catalog_table_lists_every_entry() {
        let table = catalog_table();
        for entry in catalog::entries() {
            assert!(table.contains(entry.name), "missing {}", entry.name);
        }
        assert!(table.contains("|Aut|"));
    }

    #[test]
    fn run_count_prints_one_number() {
        let cmd = parse(&[
            "count",
            "--generate",
            "gnp:60,0.1,7",
            "--pattern",
            "triangle",
        ]);
        let mut out = Vec::new();
        let feedback = run(&cmd, &mut out).unwrap();
        assert!(feedback.is_none());
        let text = String::from_utf8(out).unwrap();
        let _: usize = text.trim().parse().expect("count output is a number");
    }

    #[test]
    fn unknown_pattern_error_points_at_the_catalog() {
        let opts = RequestOpts {
            source: "gnp:10,0.5,1".parse().unwrap(),
            pattern: "dodecahedron".to_string(),
            reducers: None,
            threads: None,
            memory_budget: None,
            spill_dir: None,
            strategy: None,
        };
        let err = count_instances(&opts).unwrap_err();
        assert!(err.to_string().contains("subgraph catalog"));
        assert_eq!(err.exit_code(), 1);
    }

    #[test]
    fn missing_input_file_error_names_the_path() {
        let opts = RequestOpts {
            source: GraphSource::file("/no/such/snapshot.txt"),
            pattern: "triangle".to_string(),
            reducers: None,
            threads: None,
            memory_budget: None,
            spill_dir: None,
            strategy: None,
        };
        let err = count_instances(&opts).unwrap_err();
        assert!(err.to_string().contains("/no/such/snapshot.txt"));
    }

    #[test]
    fn inapplicable_flags_are_rejected_not_ignored() {
        let err = |args: &[&str]| match Command::parse(args) {
            Err(CliError::Usage(msg)) => msg,
            other => panic!("expected usage error, got {other:?}"),
        };
        let base = ["count", "--generate", "gnp:9,0.5", "--pattern", "triangle"];
        let with = |extra: &[&'static str]| -> Vec<&'static str> { [&base[..], extra].concat() };
        assert!(err(&with(&["--output", "x.txt"])).contains("does not take --output"));
        assert!(err(&with(&["--format", "csv"])).contains("does not take --format"));
        assert!(err(&["catalog", "--pattern", "triangle"]).contains("does not take --pattern"));
        assert!(err(&[
            "explain",
            "--generate",
            "gnp:9,0.5",
            "--pattern",
            "triangle",
            "-v"
        ])
        .contains("does not take --verbose"));
        assert!(
            err(&["generate", "gnp:9,0.5", "--threads", "2"]).contains("does not take --threads")
        );
    }

    #[test]
    fn failed_enumerate_never_truncates_an_existing_output_file() {
        let dir = std::env::temp_dir().join("subgraph-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("precious.ndjson");
        std::fs::write(&out, "previous results\n").unwrap();

        // Unreadable input graph.
        let bad_input = RequestOpts {
            source: GraphSource::file("/no/such/graph.txt"),
            pattern: "triangle".to_string(),
            reducers: None,
            threads: None,
            memory_budget: None,
            spill_dir: None,
            strategy: None,
        };
        let err = enumerate_to_file(&bad_input, Format::Ndjson, &out).unwrap_err();
        assert!(err.to_string().contains("/no/such/graph.txt"));
        assert!(
            !err.to_string().contains("precious.ndjson"),
            "a load failure must not be labelled as a write failure: {err}"
        );

        // Unknown pattern.
        let bad_pattern = RequestOpts {
            source: "gnp:10,0.5,1".parse().unwrap(),
            pattern: "dodecahedron".to_string(),
            ..bad_input
        };
        enumerate_to_file(&bad_pattern, Format::Ndjson, &out).unwrap_err();

        assert_eq!(
            std::fs::read_to_string(&out).unwrap(),
            "previous results\n",
            "failed runs must leave the output file untouched"
        );
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn parses_serve_with_every_flag() {
        let cmd = parse(&[
            "serve",
            "--generate",
            "gnm:50,120,9",
            "--listen",
            "127.0.0.1:0",
            "--unix",
            "/tmp/subgraph.sock",
            "--plan-cache",
            "128",
            "--pool",
            "8",
            "--threads",
            "2",
            "--timeout-secs",
            "10",
            "--verbose",
        ]);
        match cmd {
            Command::Serve {
                listen,
                unix,
                plan_cache,
                pool,
                threads,
                timeout_secs,
                verbose,
                ..
            } => {
                assert_eq!(listen.as_deref(), Some("127.0.0.1:0"));
                assert_eq!(unix, Some(PathBuf::from("/tmp/subgraph.sock")));
                assert_eq!(plan_cache, 128);
                assert_eq!(pool, 8);
                assert_eq!(threads, 2);
                assert_eq!(timeout_secs, 10);
                assert!(verbose);
            }
            other => panic!("expected Serve, got {other:?}"),
        }
        // Defaults.
        match parse(&["serve", "--generate", "gnm:50,120,9"]) {
            Command::Serve {
                listen,
                plan_cache,
                pool,
                threads,
                timeout_secs,
                ..
            } => {
                assert!(listen.is_none());
                assert_eq!(plan_cache, 64);
                assert_eq!(pool, 4);
                assert_eq!(threads, 1);
                assert_eq!(timeout_secs, 30);
            }
            other => panic!("expected Serve, got {other:?}"),
        }
    }

    #[test]
    fn serve_and_one_shot_flags_stay_separated() {
        let err = |args: &[&str]| match Command::parse(args) {
            Err(CliError::Usage(msg)) => msg,
            other => panic!("expected usage error, got {other:?}"),
        };
        assert!(
            err(&["serve", "--generate", "gnm:9,20,1", "--pattern", "triangle"])
                .contains("does not take --pattern")
        );
        assert!(err(&[
            "serve",
            "--generate",
            "gnm:9,20,1",
            "--strategy",
            "cq-oriented"
        ])
        .contains("does not take --strategy"));
        assert!(err(&["serve"]).contains("needs a graph"));
        assert!(err(&[
            "count",
            "--generate",
            "gnm:9,20,1",
            "--pattern",
            "triangle",
            "--listen",
            "127.0.0.1:0"
        ])
        .contains("does not take --listen"));
        assert!(err(&[
            "enumerate",
            "--generate",
            "gnm:9,20,1",
            "--pattern",
            "t",
            "--pool",
            "2"
        ])
        .contains("does not take --pool"));
        assert!(err(&[
            "count",
            "--generate",
            "gnm:9,20,1",
            "--pattern",
            "t",
            "--timeout-secs",
            "5"
        ])
        .contains("does not take --timeout-secs"));
    }

    #[test]
    fn inline_pattern_specs_count_like_catalog_names() {
        let by_name = RequestOpts {
            source: "gnp:60,0.1,7".parse().unwrap(),
            pattern: "triangle".to_string(),
            reducers: Some(16),
            threads: Some(1),
            memory_budget: None,
            spill_dir: None,
            strategy: None,
        };
        let by_spec = RequestOpts {
            pattern: "a-b,b-c,c-a".to_string(),
            ..by_name.clone()
        };
        assert_eq!(
            count_instances(&by_name).unwrap().0.count(),
            count_instances(&by_spec).unwrap().0.count(),
        );
        // Bad specs carry the spec-level reason.
        let bad = RequestOpts {
            pattern: "a-a".to_string(),
            ..by_name
        };
        let err = count_instances(&bad).unwrap_err();
        assert!(err.to_string().contains("self-loop"), "{err}");
    }

    #[test]
    fn verbose_count_reports_input_hygiene() {
        let dir = std::env::temp_dir().join("subgraph-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dirty-hygiene.txt");
        std::fs::write(&path, "0 1\r\n1 0\n\n1 2\n0 2\n").unwrap();
        let cmd = parse(&[
            "count",
            "--input",
            path.to_str().unwrap(),
            "--pattern",
            "triangle",
            "--verbose",
        ]);
        let mut out = Vec::new();
        let feedback = run(&cmd, &mut out).unwrap().expect("verbose feedback");
        assert!(feedback.contains("input hygiene:"), "{feedback}");
        assert!(feedback.contains("duplicates 1 collapsed"), "{feedback}");
        assert!(feedback.contains("blank lines 1"), "{feedback}");
        assert!(feedback.contains("crlf lines 1"), "{feedback}");
        assert_eq!(String::from_utf8(out).unwrap().trim(), "1");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn convert_writes_an_sgr_file_that_counts_identically() {
        let dir = std::env::temp_dir().join("subgraph-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let text = dir.join("convert-src.txt");
        let binary = dir.join("convert-out.sgr");

        let mut out = Vec::new();
        run(
            &parse(&[
                "generate",
                "gnp:90,0.07,11",
                "--output",
                text.to_str().unwrap(),
            ]),
            &mut out,
        )
        .unwrap();
        let note = run(
            &parse(&[
                "convert",
                "--input",
                text.to_str().unwrap(),
                "--output",
                binary.to_str().unwrap(),
            ]),
            &mut out,
        )
        .unwrap()
        .expect("convert reports what it wrote");
        assert!(note.contains("mmap-loadable"), "{note}");

        // The binary file starts with the container magic, not text.
        let head = std::fs::read(&binary).unwrap();
        assert_eq!(&head[..8], b"SGRAPH\r\n");

        // Count parity: text source vs .sgr source.
        let from = |path: &std::path::Path| RequestOpts {
            source: GraphSource::file(path),
            pattern: "triangle".to_string(),
            reducers: Some(16),
            threads: Some(1),
            memory_budget: None,
            spill_dir: None,
            strategy: None,
        };
        assert_eq!(
            count_instances(&from(&text)).unwrap().0.count(),
            count_instances(&from(&binary)).unwrap().0.count(),
        );
        std::fs::remove_file(&text).ok();
        std::fs::remove_file(&binary).ok();
    }

    #[test]
    fn convert_usage_is_strict() {
        let err = |args: &[&str]| match Command::parse(args) {
            Err(CliError::Usage(msg)) => msg,
            other => panic!("expected usage error, got {other:?}"),
        };
        assert!(err(&["convert", "--generate", "gnp:9,0.5"]).contains("--output"));
        assert!(err(&["convert"]).contains("exactly one input"));
        assert!(err(&[
            "convert",
            "--generate",
            "gnp:9,0.5",
            "-o",
            "x.sgr",
            "--pattern",
            "triangle"
        ])
        .contains("does not take --pattern"));
    }

    #[test]
    fn parse_size_understands_binary_suffixes() {
        assert_eq!(parse_size("0"), Some(0));
        assert_eq!(parse_size("4096"), Some(4096));
        assert_eq!(parse_size("64K"), Some(64 << 10));
        assert_eq!(parse_size("64k"), Some(64 << 10));
        assert_eq!(parse_size("2M"), Some(2 << 20));
        assert_eq!(parse_size("2G"), Some(2 << 30));
        assert_eq!(parse_size(""), None);
        assert_eq!(parse_size("K"), None);
        assert_eq!(parse_size("12T"), None);
        assert_eq!(parse_size("-1"), None);
        assert_eq!(parse_size("999999999999999999999G"), None);
    }

    #[test]
    fn memory_budget_and_spill_dir_flags_parse() {
        let cmd = parse(&[
            "count",
            "--generate",
            "gnp:9,0.5",
            "--pattern",
            "triangle",
            "--memory-budget",
            "64K",
            "--spill-dir",
            "/tmp/spill-here",
        ]);
        match cmd {
            Command::Count { opts, .. } => {
                assert_eq!(opts.memory_budget, Some(64 << 10));
                assert_eq!(opts.spill_dir, Some(PathBuf::from("/tmp/spill-here")));
            }
            other => panic!("expected Count, got {other:?}"),
        }
        let cmd = parse(&["serve", "--generate", "gnp:9,0.5", "--memory-budget", "1G"]);
        match cmd {
            Command::Serve {
                memory_budget,
                spill_dir,
                ..
            } => {
                assert_eq!(memory_budget, 1 << 30);
                assert_eq!(spill_dir, None);
            }
            other => panic!("expected Serve, got {other:?}"),
        }
    }

    #[test]
    fn spill_flags_are_rejected_where_inapplicable() {
        let err = |args: &[&str]| match Command::parse(args) {
            Err(CliError::Usage(msg)) => msg,
            other => panic!("expected usage error, got {other:?}"),
        };
        assert!(
            err(&["catalog", "--memory-budget", "1M"]).contains("does not take --memory-budget")
        );
        assert!(err(&["generate", "gnp:9,0.5", "--spill-dir", "/tmp"])
            .contains("does not take --spill-dir"));
        assert!(err(&[
            "convert",
            "--generate",
            "gnp:9,0.5",
            "-o",
            "x.sgr",
            "--memory-budget",
            "1M"
        ])
        .contains("does not take --memory-budget"));
        assert!(err(&[
            "count",
            "--generate",
            "gnp:9,0.5",
            "--pattern",
            "triangle",
            "--force"
        ])
        .contains("does not take --force"));
        assert!(err(&[
            "count",
            "--generate",
            "gnp:9,0.5",
            "--pattern",
            "triangle",
            "--memory-budget",
            "lots"
        ])
        .contains("byte count"));
    }

    #[test]
    fn unwritable_spill_dir_fails_fast() {
        // A spill dir nested under a regular file can never be created: the
        // request must fail before any round runs, naming the dir.
        let dir = std::env::temp_dir().join("subgraph-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let blocker = dir.join("not-a-dir.txt");
        std::fs::write(&blocker, "x").unwrap();
        let opts = RequestOpts {
            source: "gnp:30,0.2,5".parse().unwrap(),
            pattern: "triangle".to_string(),
            reducers: None,
            threads: Some(2),
            memory_budget: Some(64 << 10),
            spill_dir: Some(blocker.join("spill")),
            strategy: None,
        };
        let err = count_instances(&opts).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("spill"), "{msg}");
        assert!(msg.contains("not-a-dir.txt"), "{msg}");
        std::fs::remove_file(&blocker).ok();
    }

    #[test]
    fn a_budgeted_count_matches_the_unbudgeted_answer() {
        let base = RequestOpts {
            source: "gnm:120,1500,13".parse().unwrap(),
            pattern: "triangle".to_string(),
            reducers: Some(220),
            threads: Some(2),
            memory_budget: None,
            spill_dir: None,
            strategy: Some(StrategyKind::BucketOrderedTriangles),
        };
        let budgeted = RequestOpts {
            memory_budget: Some(64 << 10),
            ..base.clone()
        };
        let (plain, _) = count_instances(&base).unwrap();
        let (spilled, _) = count_instances(&budgeted).unwrap();
        assert_eq!(plain.count(), spilled.count());
        let spill_bytes = |r: &RunReport| r.metrics.as_ref().map_or(0, |m| m.spilled_bytes);
        assert_eq!(spill_bytes(&plain), 0);
    }

    #[test]
    fn convert_refuses_to_overwrite_without_force() {
        let dir = std::env::temp_dir().join("subgraph-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out_path = dir.join("convert-noclobber.sgr");
        std::fs::write(&out_path, "precious bytes").unwrap();

        let mut out = Vec::new();
        let err = run(
            &parse(&[
                "convert",
                "--generate",
                "gnp:20,0.3,2",
                "--output",
                out_path.to_str().unwrap(),
            ]),
            &mut out,
        )
        .unwrap_err();
        assert!(err.to_string().contains("already exists"), "{err}");
        assert!(err.to_string().contains("--force"), "{err}");
        // The original file is untouched.
        assert_eq!(std::fs::read(&out_path).unwrap(), b"precious bytes");

        // --force overwrites it.
        let note = run(
            &parse(&[
                "convert",
                "--generate",
                "gnp:20,0.3,2",
                "--output",
                out_path.to_str().unwrap(),
                "--force",
            ]),
            &mut out,
        )
        .unwrap()
        .expect("convert reports what it wrote");
        assert!(note.contains("mmap-loadable"), "{note}");
        assert_eq!(&std::fs::read(&out_path).unwrap()[..8], b"SGRAPH\r\n");
        std::fs::remove_file(&out_path).ok();
    }

    #[test]
    fn graph_flag_is_an_input_alias() {
        let dir = std::env::temp_dir().join("subgraph-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("alias.txt");
        std::fs::write(&path, "0 1\n1 2\n0 2\n").unwrap();
        let cmd = parse(&[
            "count",
            "--graph",
            path.to_str().unwrap(),
            "--pattern",
            "triangle",
        ]);
        let mut out = Vec::new();
        run(&cmd, &mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().trim(), "1");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pattern_files_resolve_like_inline_specs() {
        let dir = std::env::temp_dir().join("subgraph-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let pat = dir.join("triangle.pat");
        std::fs::write(&pat, "# a triangle\na-b\nb-c # one edge per line\nc-a\n").unwrap();

        let inline = parse(&[
            "count",
            "--generate",
            "gnp:60,0.1,7",
            "--pattern",
            "a-b,b-c,c-a",
        ]);
        let from_file = parse(&[
            "count",
            "--generate",
            "gnp:60,0.1,7",
            "--pattern-file",
            pat.to_str().unwrap(),
        ]);
        let count_of = |cmd: &Command| {
            let mut out = Vec::new();
            run(cmd, &mut out).unwrap();
            String::from_utf8(out)
                .unwrap()
                .trim()
                .parse::<usize>()
                .unwrap()
        };
        assert_eq!(count_of(&inline), count_of(&from_file));

        // Both flags at once is a usage error; an empty file is a run error
        // naming the file; a missing file is a run error too.
        match Command::parse(&[
            "count",
            "--generate",
            "gnp:9,0.5",
            "--pattern",
            "triangle",
            "--pattern-file",
            pat.to_str().unwrap(),
        ]) {
            Err(CliError::Usage(msg)) => assert!(msg.contains("mutually exclusive"), "{msg}"),
            other => panic!("expected usage error, got {other:?}"),
        }
        let empty = dir.join("empty.pat");
        std::fs::write(&empty, "# nothing here\n").unwrap();
        match Command::parse(&[
            "count",
            "--generate",
            "gnp:9,0.5",
            "--pattern-file",
            empty.to_str().unwrap(),
        ]) {
            Err(CliError::Run(msg)) => assert!(msg.contains("empty.pat"), "{msg}"),
            other => panic!("expected run error, got {other:?}"),
        }
        match Command::parse(&[
            "count",
            "--generate",
            "gnp:9,0.5",
            "--pattern-file",
            "/no/such/pattern.pat",
        ]) {
            Err(CliError::Run(msg)) => assert!(msg.contains("/no/such/pattern.pat"), "{msg}"),
            other => panic!("expected run error, got {other:?}"),
        }
        std::fs::remove_file(&pat).ok();
        std::fs::remove_file(&empty).ok();
    }

    #[test]
    fn serve_rejects_pattern_files_too() {
        match Command::parse(&[
            "serve",
            "--generate",
            "gnm:9,20,1",
            "--pattern-file",
            "x.pat",
        ]) {
            Err(CliError::Usage(msg)) => assert!(msg.contains("does not take --pattern-file")),
            other => panic!("expected usage error, got {other:?}"),
        }
    }

    #[test]
    fn generate_then_count_round_trips_through_a_file() {
        let dir = std::env::temp_dir().join("subgraph-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("generated.txt");
        let gen = parse(&[
            "generate",
            "gnp:80,0.08,3",
            "--output",
            path.to_str().unwrap(),
        ]);
        let mut out = Vec::new();
        run(&gen, &mut out).unwrap();

        let from_file = RequestOpts {
            source: GraphSource::file(&path),
            pattern: "triangle".to_string(),
            reducers: Some(16),
            threads: Some(1),
            memory_budget: None,
            spill_dir: None,
            strategy: None,
        };
        let from_generator = RequestOpts {
            source: "gnp:80,0.08,3".parse().unwrap(),
            ..from_file.clone()
        };
        assert_eq!(
            count_instances(&from_file).unwrap().0.count(),
            count_instances(&from_generator).unwrap().0.count(),
        );
        std::fs::remove_file(&path).ok();
    }
}
