//! The PR's acceptance check: for every catalog pattern, the line count of
//! `subgraph enumerate --format ndjson` equals `subgraph count` on the same
//! input at engine thread counts {1, 2, 8} — streamed through the serializing
//! sinks, never materialized as a `Vec<Instance>`.

use subgraph_cli::{count_instances, enumerate_to_writer, Format, RequestOpts};
use subgraph_graph::GraphSource;
use subgraph_pattern::catalog;

/// A temp edge-list file shared by the tests; regenerated per call so tests
/// stay independent under any test-runner thread count.
fn edge_list_fixture(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("subgraph-cli-parity");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    // Small on purpose: the sweep below runs 10 patterns x 3 thread counts,
    // and the large-pattern bucket schemes fan out over hundreds of CQs.
    let graph = subgraph_graph::generators::gnp_sparse(26, 0.11, 23);
    subgraph_graph::io::write_edge_list_file(&graph, &path).unwrap();
    path
}

fn opts(source: GraphSource, pattern: &str, threads: usize) -> RequestOpts {
    RequestOpts {
        source,
        pattern: pattern.to_string(),
        // A modest budget keeps the bucket schemes' replication small on the
        // larger patterns while still planning map-reduce strategies.
        reducers: Some(16),
        threads: Some(threads),
        memory_budget: None,
        spill_dir: None,
        strategy: None,
    }
}

#[test]
fn ndjson_line_count_matches_count_for_every_pattern_and_thread_count() {
    let path = edge_list_fixture("parity.txt");
    for entry in catalog::entries() {
        // The count is thread-independent (pinned by the engine's own parity
        // suites), so plan it once: planning alone is expensive for 8-node
        // patterns (hypercube3 fans out over 8!/48 = 840 CQ order classes),
        // and each CLI invocation re-plans.
        let expected = count_instances(&opts(GraphSource::file(&path), entry.name, 2))
            .unwrap_or_else(|e| panic!("count {}: {e}", entry.name))
            .0
            .count();
        for threads in [1usize, 2, 8] {
            let o = opts(GraphSource::file(&path), entry.name, threads);
            let mut buf = Vec::new();
            let summary = enumerate_to_writer(&o, Format::Ndjson, &mut buf)
                .unwrap_or_else(|e| panic!("enumerate {} @ {threads}t: {e}", entry.name));
            let text = String::from_utf8(buf).unwrap();
            assert_eq!(
                text.lines().count(),
                expected,
                "ndjson line count vs count for {} at {} threads",
                entry.name,
                threads
            );
            assert_eq!(summary.written, expected);
            assert!(
                summary.report.is_streamed(),
                "enumerate must stream, not collect"
            );
        }
    }
}

#[test]
fn every_format_serializes_the_same_number_of_instances() {
    let path = edge_list_fixture("formats.txt");
    let o = opts(GraphSource::file(&path), "triangle", 2);
    let expected = count_instances(&o).unwrap().0.count();
    assert!(expected > 0, "fixture graph must contain triangles");

    let mut ndjson = Vec::new();
    assert_eq!(
        enumerate_to_writer(&o, Format::Ndjson, &mut ndjson)
            .unwrap()
            .written,
        expected
    );
    assert_eq!(String::from_utf8(ndjson).unwrap().lines().count(), expected);

    let mut csv = Vec::new();
    assert_eq!(
        enumerate_to_writer(&o, Format::Csv, &mut csv)
            .unwrap()
            .written,
        expected
    );
    let csv_text = String::from_utf8(csv).unwrap();
    assert_eq!(csv_text.lines().count(), expected + 1, "header + rows");
    assert!(csv_text.starts_with("nodes,edges\n"));

    let mut edges = Vec::new();
    assert_eq!(
        enumerate_to_writer(&o, Format::EdgeList, &mut edges)
            .unwrap()
            .written,
        expected
    );
    let edge_text = String::from_utf8(edges).unwrap();
    assert_eq!(
        edge_text
            .lines()
            .filter(|l| l.starts_with("# instance"))
            .count(),
        expected
    );
}

#[test]
fn deterministic_engine_makes_ndjson_output_identical_across_runs() {
    let path = edge_list_fixture("deterministic.txt");
    let render = || {
        let mut buf = Vec::new();
        enumerate_to_writer(
            &opts(GraphSource::file(&path), "triangle", 2),
            Format::Ndjson,
            &mut buf,
        )
        .unwrap();
        String::from_utf8(buf).unwrap()
    };
    assert_eq!(render(), render());
}

#[test]
fn forced_strategies_stream_the_same_count() {
    let path = edge_list_fixture("strategies.txt");
    let baseline = count_instances(&opts(GraphSource::file(&path), "triangle", 2))
        .unwrap()
        .0
        .count();
    for strategy in ["bucket-oriented", "multiway-triangles", "cascade-triangles"] {
        let mut o = opts(GraphSource::file(&path), "triangle", 2);
        o.strategy = subgraph_cli::parse_strategy(strategy);
        assert!(o.strategy.is_some(), "{strategy} must parse");
        let mut buf = Vec::new();
        let summary = enumerate_to_writer(&o, Format::Ndjson, &mut buf).unwrap();
        assert_eq!(summary.written, baseline, "strategy {strategy}");
    }
}

#[test]
fn served_streams_match_the_one_shot_cli_byte_for_byte() {
    use subgraph_serve::{client, spawn, GraphStore, QueryEngine, ServerConfig};

    let path = edge_list_fixture("served.txt");
    let o = opts(GraphSource::file(&path), "triangle", 2);
    let mut expected = Vec::new();
    enumerate_to_writer(&o, Format::Ndjson, &mut expected).unwrap();
    assert!(!expected.is_empty());

    // The server loads the same file once and answers at the same per-query
    // thread count and reducer budget; deterministic mode makes the bytes a
    // pure function of graph + plan + thread count, so the streams match.
    let store = GraphStore::open(&GraphSource::file(&path)).unwrap();
    let engine = QueryEngine::new(store, 8, 2);
    let config = ServerConfig {
        listen: Some("127.0.0.1:0".to_string()),
        pool: 2,
        ..ServerConfig::default()
    };
    let server = spawn(engine, &config).unwrap();
    let addr = server.tcp_addr().unwrap();
    let resp = client::get(
        &addr,
        "/query?pattern=triangle&mode=enumerate&threads=2&reducers=16",
    )
    .unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.body, expected,
        "served ndjson differs from one-shot CLI"
    );
    server.shutdown();
}

/// Runs the `subgraph` binary itself: exit code and stderr.
fn subgraph(args: &[&str]) -> (Option<i32>, String) {
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_subgraph"))
        .args(args)
        .output()
        .expect("the subgraph binary runs");
    assert!(
        output.stdout.is_empty(),
        "a refusal prints nothing to stdout"
    );
    (
        output.status.code(),
        String::from_utf8(output.stderr).unwrap(),
    )
}

/// A reducer budget no key space exists for is a named runtime failure
/// (exit code 1) at planning time, not a panic inside the round.
#[test]
fn a_budget_past_the_key_space_is_refused_by_name() {
    let too_large = "the key space exceeds u32::MAX keys or 268435456 table entries";
    let run = |pattern: &str, forced: &[&str]| {
        let mut args = vec!["count", "--generate", "gnm:100,200,1", "--pattern", pattern];
        args.extend(["--reducers", "4000000000"]);
        args.extend(forced);
        subgraph(&args)
    };
    for strategy in ["bucket-oriented", "variable-oriented", "cq-oriented"] {
        let pattern = if strategy == "bucket-oriented" {
            "c5"
        } else {
            "hypercube3"
        };
        let (code, stderr) = run(pattern, &["--strategy", strategy]);
        assert_eq!(code, Some(1), "{strategy}: {stderr}");
        assert_eq!(
            stderr,
            format!("error: strategy {strategy} cannot run this request: {too_large}\n"),
        );
    }
    // Unforced, the planner falls through the candidates; hypercube3 at this
    // budget runs out of them, and the first candidate's refusal is named.
    let (code, stderr) = run("hypercube3", &[]);
    assert_eq!(code, Some(1), "{stderr}");
    assert_eq!(
        stderr,
        format!("error: strategy bucket-oriented cannot run this request: {too_large}\n"),
    );
}
