//! Query parsing and execution: the path every request takes, shared by the
//! HTTP handler, the tests and the bench so all three measure the same code.
//!
//! A query names a pattern (catalog name or inline spec), a mode (`count` or
//! `enumerate`), an output format, and optionally a reducer budget and a
//! thread count. Execution resolves the pattern, consults the plan cache
//! (planning on a miss, [`subgraph_core::plan::Planner::resume`]-ing on a
//! hit), and runs the chosen strategy — counting through a zero-allocation
//! [`subgraph_core::sink::CountSink`], or streaming instances straight into
//! the response writer through [`NdjsonSink`]/[`CsvSink`].

use crate::cache::{CachedPlan, PlanCache, PlanKey};
use crate::store::GraphStore;
use std::io::Write;
use std::sync::Arc;
use std::time::Duration;
use subgraph_core::plan::{EnumerationRequest, PlanError, Planner, StrategyKind};
use subgraph_core::sink::{CsvSink, NdjsonSink, SerializeSink};
use subgraph_mapreduce::{EngineConfig, WorkerPool};
use subgraph_pattern::automorphism_group;

/// What to do with the matching instances.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryMode {
    /// Count instances; O(1) memory, no instance ever materialized.
    Count,
    /// Stream every instance to the client.
    Enumerate,
}

/// Serialization format for `enumerate` responses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutputFormat {
    /// Newline-delimited JSON, one instance object per line.
    Ndjson,
    /// CSV with a `nodes,edges` header.
    Csv,
}

impl OutputFormat {
    /// The HTTP `Content-Type` for this format.
    pub fn content_type(self) -> &'static str {
        match self {
            OutputFormat::Ndjson => "application/x-ndjson",
            OutputFormat::Csv => "text/csv",
        }
    }
}

/// One parsed query.
#[derive(Clone, Debug)]
pub struct QueryRequest {
    /// Catalog name or inline spec (`a-b,b-c,c-a`).
    pub pattern: String,
    /// Count or enumerate.
    pub mode: QueryMode,
    /// Serialization format for enumerate responses.
    pub format: OutputFormat,
    /// Reducer budget `k`; `None` uses the engine default.
    pub reducers: Option<usize>,
    /// Worker threads for this query; `None` uses the server's budget.
    pub threads: Option<usize>,
}

impl QueryRequest {
    /// A count query for `pattern` with every default.
    pub fn count(pattern: &str) -> Self {
        QueryRequest {
            pattern: pattern.to_string(),
            mode: QueryMode::Count,
            format: OutputFormat::Ndjson,
            reducers: None,
            threads: None,
        }
    }

    /// An enumerate query for `pattern` with every default.
    pub fn enumerate(pattern: &str) -> Self {
        QueryRequest {
            mode: QueryMode::Enumerate,
            ..QueryRequest::count(pattern)
        }
    }

    /// Builds a request from decoded `key=value` query parameters.
    /// Unknown keys are rejected so typos fail loudly instead of silently
    /// running a default query.
    pub fn from_params<'a>(
        params: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) -> Result<Self, QueryError> {
        let mut pattern: Option<String> = None;
        let mut mode = QueryMode::Count;
        let mut format = OutputFormat::Ndjson;
        let mut reducers = None;
        let mut threads = None;
        for (key, value) in params {
            match key {
                // A client may ship the contents of a pattern *file* (the
                // CLI's `--pattern-file` dialect: one edge per line, `#`
                // comments) straight into the parameter; multi-line or
                // commented text is normalized to a one-line spec, while
                // plain inline specs keep their strict parsing.
                "pattern" => {
                    pattern = Some(if value.contains('\n') || value.contains('#') {
                        subgraph_pattern::normalize_spec_text(value)
                    } else {
                        value.to_string()
                    })
                }
                "mode" => {
                    mode = match value {
                        "count" => QueryMode::Count,
                        "enumerate" => QueryMode::Enumerate,
                        other => {
                            return Err(QueryError::bad(format!(
                                "unknown mode {other:?} (try count or enumerate)"
                            )))
                        }
                    }
                }
                "format" => {
                    format = match value {
                        "ndjson" => OutputFormat::Ndjson,
                        "csv" => OutputFormat::Csv,
                        other => {
                            return Err(QueryError::bad(format!(
                                "unknown format {other:?} (try ndjson or csv)"
                            )))
                        }
                    }
                }
                "reducers" => {
                    reducers = Some(value.parse().map_err(|_| {
                        QueryError::bad(format!("reducers must be an integer, got {value:?}"))
                    })?)
                }
                "threads" => {
                    let t: usize = value.parse().map_err(|_| {
                        QueryError::bad(format!("threads must be an integer, got {value:?}"))
                    })?;
                    if t == 0 {
                        return Err(QueryError::bad("threads must be at least 1".to_string()));
                    }
                    threads = Some(t);
                }
                other => {
                    return Err(QueryError::bad(format!(
                        "unknown query parameter {other:?}"
                    )))
                }
            }
        }
        let pattern =
            pattern.ok_or_else(|| QueryError::bad("missing required parameter: pattern".into()))?;
        Ok(QueryRequest {
            pattern,
            mode,
            format,
            reducers,
            threads,
        })
    }
}

/// Why a query failed. [`QueryError::BadRequest`] is the client's fault
/// (HTTP 400); [`QueryError::Io`] is a response-write failure (the client
/// went away — nothing to send).
#[derive(Debug)]
pub enum QueryError {
    /// Malformed query: unknown pattern, bad spec, bad parameter.
    BadRequest(String),
    /// Writing the response failed.
    Io(std::io::Error),
}

impl QueryError {
    fn bad(reason: String) -> Self {
        QueryError::BadRequest(reason)
    }
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::BadRequest(reason) => write!(f, "bad request: {reason}"),
            QueryError::Io(e) => write!(f, "response write failed: {e}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<PlanError> for QueryError {
    fn from(e: PlanError) -> Self {
        QueryError::BadRequest(e.to_string())
    }
}

impl From<std::io::Error> for QueryError {
    fn from(e: std::io::Error) -> Self {
        QueryError::Io(e)
    }
}

/// What executing one query produced, besides the bytes already streamed.
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    /// Instances counted (count mode) or serialized (enumerate mode).
    pub count: usize,
    /// True when the plan came from the cache (zero planning work).
    pub cache_hit: bool,
    /// The strategy that ran.
    pub strategy: StrategyKind,
    /// Order of the pattern's automorphism group `|Aut(S)|`.
    pub automorphisms: u128,
    /// Wall-clock execution time (excludes response serialization only in
    /// count mode, where there is nothing to serialize).
    pub elapsed: Duration,
}

/// Everything needed to execute queries: the shared store, the plan cache
/// and a planner. One per server; cheap to share behind an `Arc`.
pub struct QueryEngine {
    store: GraphStore,
    cache: PlanCache,
    planner: Planner,
    /// Per-query thread budget: requests may ask for fewer, never more.
    max_threads: usize,
    /// One persistent map-reduce worker pool shared by every query this
    /// engine serves, so per-request thread spawn/join churn never lands on
    /// the query path. Sized to the thread budget: the calling connection
    /// worker participates, so `max_threads - 1` pool workers give each
    /// query its full budget.
    pool: Arc<WorkerPool>,
    /// Per-query resident-memory budget for the shuffle (bytes;
    /// 0 = unbounded). See [`QueryEngine::with_memory_budget`].
    memory_budget: usize,
    /// Base directory for spill run files (`None` = OS temp dir).
    spill_dir: Option<std::path::PathBuf>,
}

impl QueryEngine {
    /// Wraps a store with a plan cache of `cache_capacity` entries and a
    /// per-query thread budget of `max_threads`.
    pub fn new(store: GraphStore, cache_capacity: usize, max_threads: usize) -> Self {
        let max_threads = max_threads.max(1);
        QueryEngine {
            store,
            cache: PlanCache::new(cache_capacity),
            planner: Planner::new(),
            max_threads,
            pool: Arc::new(WorkerPool::new(max_threads - 1)),
            memory_budget: 0,
            spill_dir: None,
        }
    }

    /// Bounds every query's resident shuffle memory to `budget` bytes
    /// (0 = unbounded), spilling arena runs into `spill_dir` (`None` = the
    /// OS temp dir) past it. Validate the directory up front with
    /// [`subgraph_mapreduce::EngineConfig::validate_spill_dir`]; the engine
    /// assumes it is writable.
    pub fn with_memory_budget(
        mut self,
        budget: usize,
        spill_dir: Option<std::path::PathBuf>,
    ) -> Self {
        self.memory_budget = budget;
        self.spill_dir = spill_dir;
        self
    }

    /// The shared graph store.
    pub fn store(&self) -> &GraphStore {
        &self.store
    }

    /// The plan cache (counters feed `/stats`).
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// The per-query thread budget.
    pub fn max_threads(&self) -> usize {
        self.max_threads
    }

    /// The persistent map-reduce worker pool every query runs on.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// Checks that `query` names a resolvable pattern without planning or
    /// executing anything. The HTTP handler calls this before committing to
    /// a streaming response, so a bad pattern is a clean 400 instead of an
    /// error wedged mid-stream after a 200 header.
    pub fn validate(&self, query: &QueryRequest) -> Result<(), QueryError> {
        EnumerationRequest::resolve(&query.pattern, self.store.graph())?;
        Ok(())
    }

    /// Executes `query`, streaming enumerate output into `writer` (count
    /// queries never touch it). Returns the outcome for the response
    /// envelope and the metrics.
    pub fn execute<W: Write + Send>(
        &self,
        query: &QueryRequest,
        writer: W,
    ) -> Result<QueryOutcome, QueryError> {
        let started = std::time::Instant::now();
        let mut request = EnumerationRequest::resolve(&query.pattern, self.store.graph())?;
        if let Some(k) = query.reducers {
            request = request.reducers(k);
        }
        let threads = query
            .threads
            .unwrap_or(self.max_threads)
            .min(self.max_threads);
        let mut engine = EngineConfig::with_threads(threads).with_pool(Arc::clone(&self.pool));
        if self.memory_budget > 0 {
            engine = engine.memory_budget(self.memory_budget);
        }
        if let Some(dir) = &self.spill_dir {
            engine = engine.spill_dir(dir.clone());
        }
        request = request.engine(engine);
        let automorphisms = automorphism_group(request.sample()).order();

        // Plan-cache consultation: a hit resumes with zero re-estimation, a
        // miss pays for planning once and publishes the decision.
        let key = PlanKey::new(
            request.sample(),
            self.store.fingerprint(),
            request.reducer_budget(),
        );
        let (plan, cache_hit) = match self.cache.lookup(&key) {
            Some(cached) => (
                self.planner
                    .resume(request, cached.chosen, cached.candidates),
                true,
            ),
            None => {
                let plan = self.planner.plan(request)?;
                self.cache.insert(
                    key,
                    CachedPlan {
                        chosen: plan.chosen().clone(),
                        candidates: plan.candidates().to_vec(),
                    },
                );
                (plan, false)
            }
        };
        let strategy = plan.strategy();

        let count = match query.mode {
            QueryMode::Count => plan.count().count(),
            QueryMode::Enumerate => match query.format {
                OutputFormat::Ndjson => {
                    let mut sink = NdjsonSink::new(writer);
                    plan.run_with_sink(&mut sink);
                    sink.finish()?
                }
                OutputFormat::Csv => {
                    let mut sink = CsvSink::new(writer);
                    plan.run_with_sink(&mut sink);
                    sink.finish()?
                }
            },
        };
        Ok(QueryOutcome {
            count,
            cache_hit,
            strategy,
            automorphisms,
            elapsed: started.elapsed(),
        })
    }
}

impl std::fmt::Debug for QueryEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryEngine")
            .field("store", &self.store.source())
            .field("cache", &self.cache)
            .field("max_threads", &self.max_threads)
            .field("pool_workers", &self.pool.workers())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subgraph_graph::generators;

    fn engine() -> QueryEngine {
        QueryEngine::new(GraphStore::from_graph(generators::complete(5)), 8, 1)
    }

    #[test]
    fn count_queries_count_without_writing() {
        let e = engine();
        let mut out = Vec::new();
        let outcome = e
            .execute(&QueryRequest::count("triangle"), &mut out)
            .unwrap();
        assert_eq!(outcome.count, 10); // C(5, 3) triangles in K5
        assert_eq!(outcome.automorphisms, 6);
        assert!(out.is_empty(), "count mode writes nothing");
        assert!(!outcome.cache_hit);
    }

    #[test]
    fn repeated_queries_hit_the_cache() {
        let e = engine();
        let first = e
            .execute(&QueryRequest::count("triangle"), std::io::sink())
            .unwrap();
        let second = e
            .execute(&QueryRequest::count("triangle"), std::io::sink())
            .unwrap();
        assert!(!first.cache_hit);
        assert!(second.cache_hit);
        assert_eq!(first.count, second.count);
        assert_eq!(first.strategy, second.strategy);
        assert_eq!(e.cache().hits(), 1);
        assert_eq!(e.cache().misses(), 1);
        // The inline spec of the same shape shares the entry.
        let spec = e
            .execute(&QueryRequest::count("a-b,b-c,c-a"), std::io::sink())
            .unwrap();
        assert!(spec.cache_hit);
        assert_eq!(spec.count, 10);
    }

    #[test]
    fn enumerate_streams_ndjson() {
        let e = engine();
        let mut out = Vec::new();
        let outcome = e
            .execute(&QueryRequest::enumerate("triangle"), &mut out)
            .unwrap();
        assert_eq!(outcome.count, 10);
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 10);
        assert!(text.lines().all(|l| l.starts_with("{\"nodes\":[")));
    }

    #[test]
    fn enumerate_streams_csv() {
        let e = engine();
        let mut out = Vec::new();
        let mut query = QueryRequest::enumerate("triangle");
        query.format = OutputFormat::Csv;
        let outcome = e.execute(&query, &mut out).unwrap();
        assert_eq!(outcome.count, 10);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("nodes,edges\n"));
        assert_eq!(text.lines().count(), 11);
    }

    #[test]
    fn bad_patterns_are_bad_requests() {
        let e = engine();
        for pattern in ["dodecahedron", "a-a", "a-b,,b-c"] {
            match e.execute(&QueryRequest::count(pattern), std::io::sink()) {
                Err(QueryError::BadRequest(_)) => {}
                other => panic!("expected BadRequest for {pattern:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn params_parse_with_defaults_and_reject_unknowns() {
        let q = QueryRequest::from_params([("pattern", "triangle")]).unwrap();
        assert_eq!(q.mode, QueryMode::Count);
        assert_eq!(q.format, OutputFormat::Ndjson);
        assert!(q.reducers.is_none());

        let q = QueryRequest::from_params([
            ("pattern", "square"),
            ("mode", "enumerate"),
            ("format", "csv"),
            ("reducers", "128"),
            ("threads", "2"),
        ])
        .unwrap();
        assert_eq!(q.mode, QueryMode::Enumerate);
        assert_eq!(q.format, OutputFormat::Csv);
        assert_eq!(q.reducers, Some(128));
        assert_eq!(q.threads, Some(2));

        for bad in [
            vec![("mode", "count")],                        // missing pattern
            vec![("pattern", "triangle"), ("mode", "x")],   // bad mode
            vec![("pattern", "triangle"), ("format", "x")], // bad format
            vec![("pattern", "triangle"), ("reducers", "x")],
            vec![("pattern", "triangle"), ("threads", "0")],
            vec![("pattern", "triangle"), ("nope", "1")], // unknown key
        ] {
            assert!(QueryRequest::from_params(bad).is_err());
        }
    }

    #[test]
    fn pattern_file_contents_are_accepted_as_pattern_text() {
        let file_text = "# the triangle, one edge per line\na-b\nb-c\nc-a\n";
        let q = QueryRequest::from_params([("pattern", file_text)]).unwrap();
        assert_eq!(q.pattern, "a-b,b-c,c-a");
        let outcome = engine().execute(&q, std::io::sink()).unwrap();
        assert_eq!(outcome.count, 10);
        // One-line specs stay strict: no silent repair of empty edges.
        let strict = QueryRequest::from_params([("pattern", "a-b,,b-c")]).unwrap();
        assert_eq!(strict.pattern, "a-b,,b-c");
        assert!(matches!(
            engine().execute(&strict, std::io::sink()),
            Err(QueryError::BadRequest(_))
        ));
    }

    #[test]
    fn thread_requests_are_capped_by_the_server_budget() {
        let e = QueryEngine::new(GraphStore::from_graph(generators::complete(5)), 8, 2);
        let mut query = QueryRequest::count("triangle");
        query.threads = Some(64);
        // Succeeds and stays within budget (indirectly: no panic, right count).
        let outcome = e.execute(&query, std::io::sink()).unwrap();
        assert_eq!(outcome.count, 10);
    }

    #[test]
    fn reducer_budget_is_part_of_the_cache_key() {
        let e = engine();
        e.execute(&QueryRequest::count("triangle"), std::io::sink())
            .unwrap();
        let mut serial = QueryRequest::count("triangle");
        serial.reducers = Some(1);
        let outcome = e.execute(&serial, std::io::sink()).unwrap();
        assert!(!outcome.cache_hit, "different budget, different plan");
        assert!(outcome.strategy.is_serial());
        assert_eq!(outcome.count, 10);
    }
}
