//! Integration tests for the query service: served responses must be
//! byte-identical to the one-shot engine path at the same thread count, under
//! concurrent clients, and the plan cache must be observable (and correct)
//! through `/stats`.

use std::net::{SocketAddr, TcpStream};
use subgraph_core::sink::SerializeSink;
use subgraph_core::{CsvSink, EnumerationRequest, NdjsonSink};
use subgraph_graph::{generators, DataGraph};
use subgraph_mapreduce::EngineConfig;
use subgraph_serve::{client, spawn, GraphStore, QueryEngine, ServerConfig};

fn fixture_graph() -> DataGraph {
    generators::gnm(60, 240, 7)
}

fn start(cache_capacity: usize, max_threads: usize, pool: usize) -> subgraph_serve::ServerHandle {
    let engine = QueryEngine::new(
        GraphStore::from_graph(fixture_graph()),
        cache_capacity,
        max_threads,
    );
    let config = ServerConfig {
        listen: Some("127.0.0.1:0".to_string()),
        pool,
        cache_capacity,
        threads_per_query: max_threads,
        ..ServerConfig::default()
    };
    spawn(engine, &config).expect("server starts")
}

/// What `subgraph enumerate --threads <t>` streams for `pattern`: the same
/// engine, planner and sink stack the server runs, invoked one-shot.
fn one_shot_ndjson(pattern: &str, threads: usize) -> Vec<u8> {
    let graph = fixture_graph();
    let plan = EnumerationRequest::resolve(pattern, &graph)
        .unwrap()
        .engine(EngineConfig::with_threads(threads))
        .plan()
        .unwrap();
    let mut out = Vec::new();
    let mut sink = NdjsonSink::new(&mut out);
    plan.run_with_sink(&mut sink);
    sink.finish().unwrap();
    out
}

/// Pulls an integer counter out of the `/stats` JSON without a JSON parser.
fn stat(body: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    let at = body
        .find(&needle)
        .unwrap_or_else(|| panic!("{key} in {body}"));
    body[at + needle.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap()
}

#[test]
fn concurrent_clients_get_byte_identical_streams() {
    // Deterministic engine output is a function of input and thread count,
    // so pin the per-query thread count on both sides.
    let threads = 2;
    let expected = one_shot_ndjson("triangle", threads);
    assert!(!expected.is_empty(), "fixture graph must contain triangles");

    let server = start(8, threads, 4);
    let addr = server.tcp_addr().unwrap();
    let clients: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                client::get(&addr, "/query?pattern=triangle&mode=enumerate")
                    .expect("query succeeds")
            })
        })
        .collect();
    for handle in clients {
        let resp = handle.join().unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, expected, "served stream differs from one-shot");
    }
    server.shutdown();
}

#[test]
fn inline_specs_and_csv_match_one_shot_output() {
    let server = start(8, 1, 2);
    let addr = server.tcp_addr().unwrap();

    // The spec a-b,b-c,c-a is the triangle; both sides resolve it the same.
    let expected = one_shot_ndjson("a-b,b-c,c-a", 1);
    let resp = client::get(&addr, "/query?pattern=a-b%2Cb-c%2Cc-a&mode=enumerate").unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, expected);

    // CSV parity through the same plan.
    let graph = fixture_graph();
    let plan = EnumerationRequest::resolve("triangle", &graph)
        .unwrap()
        .engine(EngineConfig::with_threads(1))
        .plan()
        .unwrap();
    let mut expected_csv = Vec::new();
    let mut sink = CsvSink::new(&mut expected_csv);
    plan.run_with_sink(&mut sink);
    sink.finish().unwrap();
    let resp = client::get(&addr, "/query?pattern=triangle&mode=enumerate&format=csv").unwrap();
    assert_eq!(resp.header("content-type").as_deref(), Some("text/csv"));
    assert_eq!(resp.body, expected_csv);
    server.shutdown();
}

#[test]
fn warm_queries_resume_without_replanning() {
    let server = start(8, 1, 2);
    let addr = server.tcp_addr().unwrap();
    let mut counts = Vec::new();
    for _ in 0..10 {
        let resp = client::get(&addr, "/query?pattern=triangle").unwrap();
        assert_eq!(resp.status, 200);
        counts.push(stat(&resp.text(), "count"));
    }
    assert!(counts.windows(2).all(|w| w[0] == w[1]));

    let stats = client::get(&addr, "/stats").unwrap().text();
    assert_eq!(
        stat(&stats, "misses"),
        1,
        "only the cold query plans: {stats}"
    );
    assert_eq!(stat(&stats, "hits"), 9, "every warm query resumes: {stats}");
    assert_eq!(stat(&stats, "queries_ok"), 10);
    server.shutdown();
}

#[test]
fn cache_eviction_is_visible_in_stats() {
    let server = start(2, 1, 1); // room for two plans
    let addr = server.tcp_addr().unwrap();
    for pattern in ["triangle", "square", "path4"] {
        assert_eq!(
            client::get(&addr, &format!("/query?pattern={pattern}"))
                .unwrap()
                .status,
            200
        );
    }
    let stats = client::get(&addr, "/stats").unwrap().text();
    assert_eq!(stat(&stats, "evictions"), 1, "{stats}");
    assert_eq!(stat(&stats, "size"), 2, "{stats}");
    // The evicted plan (triangle, least recently used) re-plans on return.
    client::get(&addr, "/query?pattern=triangle").unwrap();
    let stats = client::get(&addr, "/stats").unwrap().text();
    assert_eq!(stat(&stats, "misses"), 4, "{stats}");
    assert_eq!(stat(&stats, "evictions"), 2, "{stats}");
    server.shutdown();
}

#[test]
fn bad_requests_are_answered_400_in_band() {
    let server = start(8, 1, 2);
    let addr = server.tcp_addr().unwrap();
    for target in [
        "/query",                                     // missing pattern
        "/query?pattern=dodecahedron",                // unknown pattern
        "/query?pattern=a-a",                         // self-loop spec
        "/query?pattern=triangle&mode=xml",           // unknown mode
        "/query?pattern=triangle&format=xml",         // unknown format
        "/query?pattern=triangle&threads=0",          // zero threads
        "/query?pattern=triangle&reducers=abc",       // non-numeric budget
        "/query?pattern=triangle&nope=1",             // unknown key
        "/query?pattern=dodecahedron&mode=enumerate", // 400 before streaming
    ] {
        let resp = client::get(&addr, target).unwrap();
        assert_eq!(resp.status, 400, "{target} => {}", resp.text());
        assert!(!resp.body.is_empty(), "{target} carries a reason");
    }

    // Raw protocol garbage never crashes a worker; it gets a 400 too.
    for garbage in ["BLARG\r\n\r\n", "GET\r\n\r\n", "GET / FTP/1.0\r\n\r\n"] {
        use std::io::{Read, Write};
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(garbage.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(
            response.starts_with("HTTP/1.1 400"),
            "{garbage:?} => {response:?}"
        );
    }

    // The server still answers real queries afterwards.
    assert_eq!(
        client::get(&addr, "/query?pattern=triangle")
            .unwrap()
            .status,
        200
    );
    let stats = client::get(&addr, "/stats").unwrap().text();
    assert!(stat(&stats, "client_errors") >= 9, "{stats}");
    server.shutdown();
}

#[test]
fn twelve_node_patterns_answer_within_the_request_timeout() {
    // The handler reads |Aut| before the plan-cache lookup on every request.
    // As a list of elements that was 12! permutations for either pattern
    // here; as a stabilizer chain it is microseconds, so both answer long
    // before the client's read timeout — and a pattern past the order-class
    // limit is a prompt 400 naming the reason, not a hung worker.
    let engine = QueryEngine::new(GraphStore::from_graph(generators::gnm(40, 50, 3)), 8, 1);
    let config = ServerConfig {
        listen: Some("127.0.0.1:0".to_string()),
        pool: 1,
        ..ServerConfig::default()
    };
    let server = spawn(engine, &config).expect("server starts");
    let addr = server.tcp_addr().unwrap();
    let timeout = config.read_timeout.expect("the default config has one");
    for (pattern, automorphisms) in [("star12", "39916800"), ("k12", "479001600")] {
        let started = std::time::Instant::now();
        let resp = client::get(&addr, &format!("/query?pattern={pattern}")).unwrap();
        assert!(started.elapsed() < timeout, "{pattern}");
        assert_eq!(resp.status, 200, "{pattern} => {}", resp.text());
        let body = resp.text();
        assert!(body.contains("\"count\":0"), "{body}");
        let field = format!("\"automorphisms\":{automorphisms}");
        assert!(body.contains(&field), "{body}");
    }
    for pattern in ["hypercube4", "c16"] {
        let resp = client::get(&addr, &format!("/query?pattern={pattern}")).unwrap();
        assert_eq!(resp.status, 400, "{pattern} => {}", resp.text());
        assert!(resp.text().contains("order classes"), "{}", resp.text());
    }
    // A reducer budget every strategy's key space refuses: the planner's
    // words, as the CLI prints them, not a panicked worker.
    let resp = client::get(&addr, "/query?pattern=hypercube3&reducers=4000000000").unwrap();
    assert_eq!(resp.status, 400, "{}", resp.text());
    let refusal = "strategy bucket-oriented cannot run this request: \
                   the key space exceeds u32::MAX keys or 268435456 table entries";
    assert_eq!(resp.text(), refusal);
    server.shutdown();
}

#[test]
fn shutdown_frees_the_port() {
    let server = start(4, 1, 1);
    let addr: SocketAddr = server.tcp_addr().unwrap();
    assert_eq!(client::get(&addr, "/healthz").unwrap().status, 200);
    server.shutdown();
    // The listener is gone: connecting now fails (or connects to nothing
    // that answers). Binding the same port again must succeed.
    let rebound = std::net::TcpListener::bind(addr);
    assert!(rebound.is_ok(), "port still held after shutdown");
}
