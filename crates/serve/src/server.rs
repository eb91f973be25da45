//! The long-lived server: listeners, a bounded worker pool, request
//! routing, metrics, and graceful shutdown.
//!
//! The shape is deliberately boring: acceptor threads (one per listener)
//! push connections into a bounded channel; a fixed pool of worker threads
//! drains it, each handling one connection at a time (parse → route →
//! respond → close). Backpressure is the channel bound — when every worker
//! is busy and the queue is full, accepts wait, and the kernel's listen
//! backlog absorbs the burst. Shutdown is a shared flag: acceptors poll it
//! between non-blocking accepts, workers between channel timeouts, so a
//! signal (or [`ServerHandle::shutdown`]) drains in-flight queries and joins
//! every thread without dropping a response mid-body.

use crate::http::{read_request, write_response, write_streaming_header, HttpError, HttpRequest};
use crate::query::{QueryEngine, QueryError, QueryMode, QueryRequest};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How the server is run: listeners, pool size, cache capacity.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// TCP listen address, e.g. `127.0.0.1:7878`. Port 0 picks a free port
    /// (the handle reports the bound address).
    pub listen: Option<String>,
    /// Unix-domain socket path (unix only). Removed and re-created at bind.
    #[cfg(unix)]
    pub unix_path: Option<std::path::PathBuf>,
    /// Worker threads handling connections.
    pub pool: usize,
    /// Plan-cache capacity (entries).
    pub cache_capacity: usize,
    /// Per-query engine thread budget.
    pub threads_per_query: usize,
    /// Per-query resident-memory budget in bytes for the shuffle; past it
    /// arena runs spill to disk. 0 (the default) is unbounded.
    pub memory_budget: usize,
    /// Base directory for spill run files (`None` uses the OS temp dir).
    pub spill_dir: Option<std::path::PathBuf>,
    /// Per-connection socket read timeout. A client that connects and never
    /// finishes its request releases its worker after this long instead of
    /// holding it hostage forever (the classic slowloris failure). `None`
    /// disables the timeout.
    pub read_timeout: Option<Duration>,
    /// Per-connection socket write timeout: a client that stops draining a
    /// streamed response is dropped instead of wedging the worker.
    pub write_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            listen: Some("127.0.0.1:7878".to_string()),
            #[cfg(unix)]
            unix_path: None,
            pool: 4,
            cache_capacity: 64,
            threads_per_query: 1,
            memory_budget: 0,
            spill_dir: None,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// Request/latency counters, shared between workers and `/stats`.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Connections that delivered a parseable request.
    pub requests: AtomicU64,
    /// Queries answered 200.
    pub queries_ok: AtomicU64,
    /// Requests answered 400/404/405.
    pub client_errors: AtomicU64,
    /// Connections dropped by I/O failures (client went away mid-response).
    pub io_errors: AtomicU64,
    /// Sum of successful query execution times, microseconds.
    pub query_micros_total: AtomicU64,
    /// Slowest successful query, microseconds.
    pub query_micros_max: AtomicU64,
}

impl Metrics {
    fn record_query(&self, elapsed: Duration) {
        let micros = elapsed.as_micros().min(u64::MAX as u128) as u64;
        self.queries_ok.fetch_add(1, Ordering::Relaxed);
        self.query_micros_total.fetch_add(micros, Ordering::Relaxed);
        self.query_micros_max.fetch_max(micros, Ordering::Relaxed);
    }
}

/// One accepted connection, from either listener family.
enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixStream),
}

/// A running server. Dropping the handle shuts the server down.
pub struct ServerHandle {
    engine: Arc<QueryEngine>,
    metrics: Arc<Metrics>,
    shutdown: Arc<AtomicBool>,
    tcp_addr: Option<SocketAddr>,
    threads: Vec<JoinHandle<()>>,
    #[cfg(unix)]
    unix_path: Option<std::path::PathBuf>,
}

impl ServerHandle {
    /// The bound TCP address, when a TCP listener was configured (resolves
    /// port 0 to the actual port).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The query engine (store + plan cache) behind the server.
    pub fn engine(&self) -> &Arc<QueryEngine> {
        &self.engine
    }

    /// The request metrics.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// Requests the server stop and joins every thread. In-flight queries
    /// finish; queued-but-unhandled connections are dropped.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        #[cfg(unix)]
        if let Some(path) = self.unix_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Blocks until `stop` becomes true (e.g. the signal flag from
    /// [`install_signal_handlers`]), then shuts down gracefully.
    pub fn run_until(mut self, stop: &AtomicBool) {
        while !stop.load(Ordering::SeqCst) && !self.shutdown.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(50));
        }
        self.shutdown_in_place();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// Starts a server over `engine` per `config`. Returns once every listener
/// is bound and every worker is running, so a follow-up connect succeeds.
pub fn spawn(engine: QueryEngine, config: &ServerConfig) -> io::Result<ServerHandle> {
    let engine = Arc::new(engine);
    let metrics = Arc::new(Metrics::default());
    let shutdown = Arc::new(AtomicBool::new(false));
    let mut threads = Vec::new();

    // Bounded hand-off: twice the pool so a short burst queues while every
    // worker is busy, without unbounded connection buildup.
    let (tx, rx) = sync_channel::<Conn>(config.pool.max(1) * 2);
    let rx = Arc::new(Mutex::new(rx));

    let mut tcp_addr = None;
    if let Some(listen) = &config.listen {
        let listener = TcpListener::bind(listen)?;
        tcp_addr = Some(listener.local_addr()?);
        listener.set_nonblocking(true)?;
        threads.push(spawn_tcp_acceptor(
            listener,
            tx.clone(),
            Arc::clone(&shutdown),
        ));
    }

    #[cfg(unix)]
    let mut bound_unix_path = None;
    #[cfg(unix)]
    if let Some(path) = &config.unix_path {
        // A stale socket file from a previous run would fail the bind.
        let _ = std::fs::remove_file(path);
        let listener = std::os::unix::net::UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        bound_unix_path = Some(path.clone());
        threads.push(spawn_unix_acceptor(
            listener,
            tx.clone(),
            Arc::clone(&shutdown),
        ));
    }
    drop(tx);

    for worker in 0..config.pool.max(1) {
        let rx = Arc::clone(&rx);
        let engine = Arc::clone(&engine);
        let metrics = Arc::clone(&metrics);
        let shutdown = Arc::clone(&shutdown);
        let timeouts = (config.read_timeout, config.write_timeout);
        threads.push(
            std::thread::Builder::new()
                .name(format!("serve-worker-{worker}"))
                .spawn(move || worker_loop(rx, engine, metrics, shutdown, timeouts))
                .expect("spawning a worker thread"),
        );
    }

    Ok(ServerHandle {
        engine,
        metrics,
        shutdown,
        tcp_addr,
        threads,
        #[cfg(unix)]
        unix_path: bound_unix_path,
    })
}

fn spawn_tcp_acceptor(
    listener: TcpListener,
    tx: SyncSender<Conn>,
    shutdown: Arc<AtomicBool>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("serve-accept-tcp".to_string())
        .spawn(move || loop {
            if shutdown.load(Ordering::SeqCst) {
                return;
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    if tx.send(Conn::Tcp(stream)).is_err() {
                        return; // workers are gone
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    // Short poll: this bounds the accept latency a fresh
                    // connection pays while the shutdown flag stays checkable.
                    std::thread::sleep(Duration::from_micros(200));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        })
        .expect("spawning the tcp acceptor")
}

#[cfg(unix)]
fn spawn_unix_acceptor(
    listener: std::os::unix::net::UnixListener,
    tx: SyncSender<Conn>,
    shutdown: Arc<AtomicBool>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("serve-accept-unix".to_string())
        .spawn(move || loop {
            if shutdown.load(Ordering::SeqCst) {
                return;
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    if tx.send(Conn::Unix(stream)).is_err() {
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    // Short poll: this bounds the accept latency a fresh
                    // connection pays while the shutdown flag stays checkable.
                    std::thread::sleep(Duration::from_micros(200));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        })
        .expect("spawning the unix acceptor")
}

fn worker_loop(
    rx: Arc<Mutex<Receiver<Conn>>>,
    engine: Arc<QueryEngine>,
    metrics: Arc<Metrics>,
    shutdown: Arc<AtomicBool>,
    (read_timeout, write_timeout): (Option<Duration>, Option<Duration>),
) {
    loop {
        // Hold the receiver lock only while waiting, never while handling.
        let conn = {
            let rx = rx.lock().expect("connection queue poisoned");
            rx.recv_timeout(Duration::from_millis(50))
        };
        match conn {
            Ok(Conn::Tcp(stream)) => {
                let _ = stream.set_nodelay(true);
                // A worker handles one connection at a time, so a socket that
                // never produces (or never drains) bytes would wedge it; the
                // timeouts turn that into an io error that closes the
                // connection and frees the worker.
                let _ = stream.set_read_timeout(read_timeout);
                let _ = stream.set_write_timeout(write_timeout);
                handle_connection(stream, &engine, &metrics);
            }
            #[cfg(unix)]
            Ok(Conn::Unix(stream)) => {
                let _ = stream.set_read_timeout(read_timeout);
                let _ = stream.set_write_timeout(write_timeout);
                handle_connection(stream, &engine, &metrics);
            }
            Err(RecvTimeoutError::Timeout) => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Parses, routes and answers one connection, then closes it.
fn handle_connection<S: Read + Write + Send>(stream: S, engine: &QueryEngine, metrics: &Metrics) {
    let mut reader = BufReader::new(stream);
    let request = match read_request(&mut reader) {
        Ok(request) => request,
        Err(HttpError::Malformed(reason)) => {
            metrics.client_errors.fetch_add(1, Ordering::Relaxed);
            let mut writer = BufWriter::new(reader.into_inner());
            let _ = write_response(&mut writer, 400, "text/plain", reason.as_bytes());
            return;
        }
        Err(HttpError::Io(_)) => {
            metrics.io_errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
    };
    metrics.requests.fetch_add(1, Ordering::Relaxed);
    let mut writer = BufWriter::new(reader.into_inner());
    if let Err(e) = route(&request, engine, metrics, &mut writer) {
        let _ = e; // the client is gone; nothing useful to do
        metrics.io_errors.fetch_add(1, Ordering::Relaxed);
    }
}

/// Routes one parsed request. `Err` means the response could not be
/// delivered (I/O), not a client error — those are answered in-band.
fn route<W: Write + Send>(
    request: &HttpRequest,
    engine: &QueryEngine,
    metrics: &Metrics,
    writer: &mut W,
) -> io::Result<()> {
    if request.method != "GET" {
        metrics.client_errors.fetch_add(1, Ordering::Relaxed);
        return write_response(
            writer,
            405,
            "text/plain",
            b"only GET is supported; queries travel in the query string",
        );
    }
    match request.path.as_str() {
        "/query" => {
            let params = request.params.iter().map(|(k, v)| (k.as_str(), v.as_str()));
            let query = match QueryRequest::from_params(params) {
                Ok(query) => query,
                Err(QueryError::BadRequest(reason)) => {
                    metrics.client_errors.fetch_add(1, Ordering::Relaxed);
                    return write_response(writer, 400, "text/plain", reason.as_bytes());
                }
                Err(QueryError::Io(e)) => return Err(e),
            };
            serve_query(&query, engine, metrics, writer)
        }
        "/stats" => {
            let body = stats_json(engine, metrics);
            write_response(writer, 200, "application/json", body.as_bytes())
        }
        "/healthz" => write_response(writer, 200, "text/plain", b"ok"),
        _ => {
            metrics.client_errors.fetch_add(1, Ordering::Relaxed);
            write_response(
                writer,
                404,
                "text/plain",
                b"unknown path; try /query, /stats or /healthz",
            )
        }
    }
}

fn serve_query<W: Write + Send>(
    query: &QueryRequest,
    engine: &QueryEngine,
    metrics: &Metrics,
    writer: &mut W,
) -> io::Result<()> {
    match query.mode {
        QueryMode::Count => match engine.execute(query, io::sink()) {
            Ok(outcome) => {
                metrics.record_query(outcome.elapsed);
                let body = format!(
                    "{{\"pattern\":{:?},\"count\":{},\"strategy\":\"{}\",\"cache_hit\":{},\"automorphisms\":{},\"elapsed_micros\":{}}}\n",
                    query.pattern,
                    outcome.count,
                    outcome.strategy,
                    outcome.cache_hit,
                    outcome.automorphisms,
                    outcome.elapsed.as_micros(),
                );
                write_response(writer, 200, "application/json", body.as_bytes())
            }
            Err(QueryError::BadRequest(reason)) => {
                metrics.client_errors.fetch_add(1, Ordering::Relaxed);
                write_response(writer, 400, "text/plain", reason.as_bytes())
            }
            Err(QueryError::Io(e)) => Err(e),
        },
        QueryMode::Enumerate => {
            // Validate before the header goes out: resolve failures must be
            // a clean 400, not a 200 with an error wedged mid-stream.
            match engine.validate(query) {
                Ok(()) => {}
                Err(QueryError::BadRequest(reason)) => {
                    metrics.client_errors.fetch_add(1, Ordering::Relaxed);
                    return write_response(writer, 400, "text/plain", reason.as_bytes());
                }
                Err(QueryError::Io(e)) => return Err(e),
            }
            write_streaming_header(writer, 200, query.format.content_type())?;
            match engine.execute(query, &mut *writer) {
                Ok(outcome) => {
                    metrics.record_query(outcome.elapsed);
                    writer.flush()
                }
                Err(QueryError::Io(e)) => Err(e),
                Err(QueryError::BadRequest(reason)) => {
                    // Unreachable in practice: validation already passed.
                    metrics.client_errors.fetch_add(1, Ordering::Relaxed);
                    let _ = writer.write_all(reason.as_bytes());
                    writer.flush()
                }
            }
        }
    }
}

/// Renders the `/stats` document: request counters, latency, plan-cache
/// counters, and the graph summary.
pub fn stats_json(engine: &QueryEngine, metrics: &Metrics) -> String {
    let cache = engine.cache();
    let store = engine.store();
    let queries = metrics.queries_ok.load(Ordering::Relaxed);
    let total = metrics.query_micros_total.load(Ordering::Relaxed);
    let mean = total.checked_div(queries).unwrap_or(0);
    format!(
        concat!(
            "{{\"requests\":{},\"queries_ok\":{},\"client_errors\":{},\"io_errors\":{},",
            "\"latency_micros\":{{\"mean\":{},\"max\":{}}},",
            "\"plan_cache\":{{\"hits\":{},\"misses\":{},\"evictions\":{},\"size\":{},\"capacity\":{}}},",
            "\"graph\":{{\"source\":{:?},\"nodes\":{},\"edges\":{},\"max_degree\":{},\"degeneracy\":{},\"fingerprint\":\"{:016x}\"}}}}\n",
        ),
        metrics.requests.load(Ordering::Relaxed),
        queries,
        metrics.client_errors.load(Ordering::Relaxed),
        metrics.io_errors.load(Ordering::Relaxed),
        mean,
        metrics.query_micros_max.load(Ordering::Relaxed),
        cache.hits(),
        cache.misses(),
        cache.evictions(),
        cache.len(),
        cache.capacity(),
        store.source(),
        store.stats().num_nodes,
        store.stats().num_edges,
        store.stats().max_degree,
        store.degeneracy(),
        store.fingerprint(),
    )
}

// ---- signal handling --------------------------------------------------------

static SIGNAL_SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Installs SIGINT/SIGTERM handlers (unix) that flip the returned flag, so
/// `subgraph serve` drains and exits instead of dying mid-response. On
/// non-unix platforms this returns the flag without installing anything.
/// Idempotent.
pub fn install_signal_handlers() -> &'static AtomicBool {
    #[cfg(unix)]
    {
        extern "C" fn on_signal(_sig: i32) {
            SIGNAL_SHUTDOWN.store(true, Ordering::SeqCst);
        }
        // Raw libc signal(2) registration: the std library exposes no signal
        // API and this crate is dependency-free by design. SIGINT = 2,
        // SIGTERM = 15 on every unix this builds for.
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        // SAFETY: `signal(2)` with a valid signal number and an `extern "C"`
        // handler that lives for the whole program; the handler only stores
        // to an atomic, which is async-signal-safe.
        unsafe {
            signal(2, on_signal);
            signal(15, on_signal);
        }
    }
    &SIGNAL_SHUTDOWN
}

/// The startup banner logged by `subgraph serve`.
pub fn startup_banner(
    engine: &QueryEngine,
    config: &ServerConfig,
    addr: Option<SocketAddr>,
) -> String {
    let mut out = String::new();
    out.push_str(&engine.store().describe());
    out.push('\n');
    if let Some(addr) = addr {
        out.push_str(&format!("listening on http://{addr}\n"));
    }
    #[cfg(unix)]
    if let Some(path) = &config.unix_path {
        out.push_str(&format!("listening on unix:{}\n", path.display()));
    }
    out.push_str(&format!(
        "workers {}, plan cache {} entries, {} thread(s) per query, io timeout {}",
        config.pool.max(1),
        config.cache_capacity,
        config.threads_per_query.max(1),
        match config.read_timeout {
            Some(t) => format!("{}s", t.as_secs()),
            None => "off".to_string(),
        },
    ));
    if config.memory_budget > 0 {
        out.push_str(&format!(
            ", shuffle memory budget {} bytes (spill dir: {})",
            config.memory_budget,
            match &config.spill_dir {
                Some(dir) => dir.display().to_string(),
                None => "os temp".to_string(),
            },
        ));
    }
    out
}

/// An [`Instant`] alias kept public for the bench (latency timing around the
/// client calls).
pub type Clock = Instant;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;
    use crate::store::GraphStore;
    use subgraph_graph::generators;

    fn test_server() -> ServerHandle {
        let engine = QueryEngine::new(GraphStore::from_graph(generators::complete(5)), 8, 1);
        let config = ServerConfig {
            listen: Some("127.0.0.1:0".to_string()),
            pool: 2,
            ..ServerConfig::default()
        };
        spawn(engine, &config).expect("server starts")
    }

    #[test]
    fn serves_count_queries_and_stats() {
        let server = test_server();
        let addr = server.tcp_addr().unwrap();
        let resp = client::get(&addr, "/query?pattern=triangle").unwrap();
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"count\":10"), "{body}");
        assert!(body.contains("\"cache_hit\":false"), "{body}");

        let resp = client::get(&addr, "/query?pattern=triangle").unwrap();
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"cache_hit\":true"), "{body}");

        let stats = client::get(&addr, "/stats").unwrap();
        assert_eq!(stats.status, 200);
        let body = String::from_utf8(stats.body).unwrap();
        assert!(body.contains("\"hits\":1"), "{body}");
        assert!(body.contains("\"misses\":1"), "{body}");
        server.shutdown();
    }

    #[test]
    fn serves_enumerate_streams() {
        let server = test_server();
        let addr = server.tcp_addr().unwrap();
        let resp = client::get(&addr, "/query?pattern=triangle&mode=enumerate").unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(
            resp.header("content-type").as_deref(),
            Some("application/x-ndjson")
        );
        let body = String::from_utf8(resp.body).unwrap();
        assert_eq!(body.lines().count(), 10);
        server.shutdown();
    }

    #[test]
    fn answers_errors_in_band() {
        let server = test_server();
        let addr = server.tcp_addr().unwrap();
        assert_eq!(client::get(&addr, "/nope").unwrap().status, 404);
        assert_eq!(
            client::get(&addr, "/query?pattern=dodecahedron")
                .unwrap()
                .status,
            400
        );
        assert_eq!(
            client::get(&addr, "/query?pattern=a-a&mode=enumerate")
                .unwrap()
                .status,
            400
        );
        assert_eq!(client::get(&addr, "/healthz").unwrap().status, 200);
        server.shutdown();
    }

    #[cfg(unix)]
    #[test]
    fn serves_over_a_unix_socket() {
        let path =
            std::env::temp_dir().join(format!("subgraph-serve-test-{}.sock", std::process::id()));
        let engine = QueryEngine::new(GraphStore::from_graph(generators::complete(5)), 8, 1);
        let config = ServerConfig {
            listen: None,
            unix_path: Some(path.clone()),
            pool: 1,
            ..ServerConfig::default()
        };
        let server = spawn(engine, &config).unwrap();
        let resp = client::get_unix(&path, "/query?pattern=triangle").unwrap();
        assert_eq!(resp.status, 200);
        assert!(String::from_utf8(resp.body)
            .unwrap()
            .contains("\"count\":10"));
        server.shutdown();
        assert!(!path.exists(), "socket file cleaned up on shutdown");
    }

    /// The slowloris regression: a client that connects and never sends its
    /// request must not hold a connection worker hostage. With a *single*
    /// worker and a short read timeout, a concurrent well-behaved client
    /// still gets served, and the staller's socket is closed.
    #[test]
    fn a_stalled_client_cannot_starve_other_connections() {
        let engine = QueryEngine::new(GraphStore::from_graph(generators::complete(5)), 8, 1);
        let config = ServerConfig {
            listen: Some("127.0.0.1:0".to_string()),
            pool: 1,
            read_timeout: Some(Duration::from_millis(150)),
            write_timeout: Some(Duration::from_millis(500)),
            ..ServerConfig::default()
        };
        let server = spawn(engine, &config).expect("server starts");
        let addr = server.tcp_addr().unwrap();

        // The staller: connects, sends nothing, keeps the socket open.
        let mut staller = TcpStream::connect(addr).unwrap();
        // Give the lone worker time to pick the staller up, so the healthy
        // request genuinely queues behind it.
        std::thread::sleep(Duration::from_millis(50));

        let healthy = client::get(&addr, "/query?pattern=triangle").unwrap();
        assert_eq!(healthy.status, 200);
        assert!(String::from_utf8(healthy.body)
            .unwrap()
            .contains("\"count\":10"));

        // The server must have dropped the stalled connection: the staller
        // reads EOF (or a connection reset) instead of blocking forever.
        staller
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut buf = [0u8; 64];
        match staller.read(&mut buf) {
            Ok(0) => {} // clean close
            Ok(n) => panic!("unexpected {n} bytes from a stalled connection"),
            Err(e) if e.kind() == io::ErrorKind::ConnectionReset => {}
            Err(e) => panic!("staller read should see a closed socket, got {e}"),
        }
        assert_eq!(server.metrics().io_errors.load(Ordering::Relaxed), 1);
        server.shutdown();
    }

    #[test]
    fn signal_flag_is_returned_and_static() {
        let flag = install_signal_handlers();
        assert!(!flag.load(Ordering::SeqCst) || flag.load(Ordering::SeqCst));
    }
}
