//! The two-round baseline: a cascade of two-way joins.
//!
//! Section 2 motivates the single-round multiway join by comparing it against
//! the conventional alternative — evaluating
//! `E(X,Y) ⋈ E(Y,Z) ⋈ E(X,Z)` as a cascade of two-way joins, each in its own
//! map-reduce round:
//!
//! * **Round 1** joins `E(X,Y)` with `E(Y,Z)` on `Y`, producing every *wedge*
//!   (2-path) `X < Y < Z`.
//! * **Round 2** joins the wedges with `E(X,Z)` on `(X, Z)`, keeping the
//!   wedges whose endpoints are adjacent.
//!
//! The cascade is two [`Round::run`] calls: the wedge round's outputs are
//! collected, tagged and mixed with the closing edges into the second
//! round's inputs, and the returned [`crate::result::RunStats`] carries
//! per-round metrics for both rounds.
//!
//! Its communication cost is `2m` in round 1 plus `m +` (number of wedges) in
//! round 2; on skewed graphs the wedge count is far larger than the `O(bm)`
//! the one-round algorithms ship, which is exactly the paper's argument for
//! the multiway join. The implementation exists so the benchmark harness can
//! measure that comparison.

use crate::result::RunStats;
use crate::sink::InstanceSink;
use subgraph_graph::{DataGraph, Edge, NodeId};
use subgraph_mapreduce::{CollectSink, EngineConfig, JobMetrics, MapContext, ReduceContext, Round};
use subgraph_pattern::Instance;

/// A wedge `x − y − z` with `x < y < z` produced by the first round.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Wedge {
    /// Smallest node (plays `X`).
    pub x: NodeId,
    /// Middle node (plays `Y`).
    pub y: NodeId,
    /// Largest node (plays `Z`).
    pub z: NodeId,
}

/// Input type of the second round: a wedge from round 1 or a closing edge.
#[derive(Clone, Copy)]
enum Round2Input {
    Wedge(Wedge),
    Edge(Edge),
}

/// Value type of the second round: either a wedge waiting for its closing edge
/// or the closing edge itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Round2Value {
    MiddleNode(NodeId),
    ClosingEdge,
}

/// Bytes per shuffled record of the wedge round (node key + side-tagged
/// neighbour) and of the closing round (node-pair key + tagged middle node) —
/// shared with the planner's per-round byte prediction.
pub(crate) fn cascade_record_bytes() -> (usize, usize) {
    (
        std::mem::size_of::<NodeId>() + std::mem::size_of::<Side>(),
        std::mem::size_of::<(NodeId, NodeId)>() + std::mem::size_of::<Round2Value>(),
    )
}

/// Which side of its reducer's centre node an edge endpoint lies on.
#[derive(Clone, Copy)]
enum Side {
    Lower(NodeId),
    Upper(NodeId),
}

/// Arena-shuffle encodings for the cascade's value types: a one-byte side /
/// role tag plus a varint node id where the variant carries one.
impl subgraph_codec::ArenaCodec for Side {
    const MAX_ENCODED_LEN: Option<usize> = Some(1 + subgraph_codec::max_varint_len(NodeId::BITS));

    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Side::Lower(v) => {
                out.push(0);
                subgraph_codec::write_varint(out, u64::from(*v));
            }
            Side::Upper(v) => {
                out.push(1);
                subgraph_codec::write_varint(out, u64::from(*v));
            }
        }
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Self {
        let tag = u8::decode(buf, pos);
        let v = subgraph_codec::read_varint(buf, pos) as NodeId;
        match tag {
            0 => Side::Lower(v),
            1 => Side::Upper(v),
            other => panic!("corrupt Side tag {other}"),
        }
    }
}

impl subgraph_codec::ArenaCodec for Round2Value {
    const MAX_ENCODED_LEN: Option<usize> = Some(1 + subgraph_codec::max_varint_len(NodeId::BITS));

    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Round2Value::MiddleNode(y) => {
                out.push(0);
                subgraph_codec::write_varint(out, u64::from(*y));
            }
            Round2Value::ClosingEdge => out.push(1),
        }
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Self {
        match u8::decode(buf, pos) {
            0 => Round2Value::MiddleNode(subgraph_codec::read_varint(buf, pos) as NodeId),
            1 => Round2Value::ClosingEdge,
            other => panic!("corrupt Round2Value tag {other}"),
        }
    }
}

/// The wedge round as a declarative [`Round`]: every edge is shipped twice
/// (once as `E(X,Y)` keyed by its upper endpoint, once as `E(Y,Z)` keyed by
/// its lower endpoint); the reducer for node `y` pairs its lower neighbours
/// with its upper neighbours.
fn wedge_round_spec() -> Round<'static, Edge, NodeId, Side, Wedge> {
    let mapper = |edge: &Edge, ctx: &mut MapContext<NodeId, Side>| {
        // E(X,Y) with Y = hi: contributes a lower neighbour to hi.
        ctx.emit(edge.hi(), Side::Lower(edge.lo()));
        // E(Y,Z) with Y = lo: contributes an upper neighbour to lo.
        ctx.emit(edge.lo(), Side::Upper(edge.hi()));
    };
    let reducer = |y: &NodeId, values: &[Side], ctx: &mut ReduceContext<Wedge>| {
        let mut lower = Vec::new();
        let mut upper = Vec::new();
        for value in values {
            match *value {
                Side::Lower(x) => lower.push(x),
                Side::Upper(z) => upper.push(z),
            }
        }
        ctx.add_work((lower.len() * upper.len()) as u64);
        for &x in &lower {
            for &z in &upper {
                ctx.emit(Wedge { x, y: *y, z });
            }
        }
    };
    Round::new("wedge", mapper, reducer)
}

/// The closing round as a declarative [`Round`]: wedges and edges are keyed by
/// the endpoint pair `(x, z)`; a wedge becomes a triangle when the closing
/// edge shares its key.
fn closing_round_spec() -> Round<'static, Round2Input, (NodeId, NodeId), Round2Value, Instance> {
    let mapper =
        |input: &Round2Input, ctx: &mut MapContext<(NodeId, NodeId), Round2Value>| match input {
            Round2Input::Wedge(w) => ctx.emit((w.x, w.z), Round2Value::MiddleNode(w.y)),
            Round2Input::Edge(e) => ctx.emit(e.endpoints(), Round2Value::ClosingEdge),
        };
    let reducer =
        |key: &(NodeId, NodeId), values: &[Round2Value], ctx: &mut ReduceContext<Instance>| {
            ctx.add_work(values.len() as u64);
            let closed = values.iter().any(|v| matches!(v, Round2Value::ClosingEdge));
            if !closed {
                return;
            }
            let (x, z) = *key;
            for value in values {
                if let Round2Value::MiddleNode(y) = value {
                    ctx.emit(Instance::from_edge_set([(x, *y), (*y, z), (x, z)]));
                }
            }
        };
    Round::new("closing", mapper, reducer)
}

/// Runs the two-round cascade, streaming the triangles of the closing round
/// into `sink`; the wedge round materializes (its output feeds round 2), but
/// the closing round's reducers feed the sink directly.
///
/// Internal runner behind [`crate::plan::StrategyKind::CascadeTriangles`].
pub(crate) fn run_cascade_triangles_into(
    graph: &DataGraph,
    config: &EngineConfig,
    sink: &mut dyn InstanceSink,
) -> RunStats {
    let (wedges, wedge) = wedge_round(graph, config);
    // The second round joins the wedge stream with the edge relation: feed it
    // both, tagged by origin.
    let inputs: Vec<Round2Input> = (wedges.into_iter().map(Round2Input::Wedge))
        .chain(graph.edges().iter().copied().map(Round2Input::Edge))
        .collect();
    let closing = closing_round_spec().run(&inputs, config, sink);
    // Costs add over the rounds; the outputs are the closing round's.
    let outputs = closing.outputs;
    let mut stats = RunStats::single_round("wedge", wedge);
    stats.absorb(RunStats::single_round("closing", closing));
    stats.outputs = outputs;
    stats.metrics.outputs = outputs;
    stats
}

/// Collect-mode wrapper over [`run_cascade_triangles_into`] (tests and
/// in-crate comparisons).
#[cfg(test)]
pub(crate) fn run_cascade_triangles(
    graph: &DataGraph,
    config: &EngineConfig,
) -> crate::result::MapReduceRun {
    RunStats::collect(|sink| run_cascade_triangles_into(graph, config, sink))
}

/// Runs only the first (wedge) round — exposed for tests and experiments that
/// inspect the intermediate wedge stream.
pub fn wedge_round(graph: &DataGraph, config: &EngineConfig) -> (Vec<Wedge>, JobMetrics) {
    let mut wedges = CollectSink::new();
    let metrics = wedge_round_spec().run(graph.edges(), config, &mut wedges);
    (wedges.into_items(), metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::bucket_oriented::run_bucket_oriented;
    use crate::serial::triangles::enumerate_triangles_serial;
    use subgraph_graph::generators;
    use subgraph_pattern::catalog;

    fn config() -> EngineConfig {
        EngineConfig::with_threads(4)
    }

    #[test]
    fn cascade_records_stay_within_their_bounds() {
        use subgraph_codec::ArenaCodec;
        fn len<T: ArenaCodec>(value: T) -> usize {
            let mut buf = Vec::new();
            value.encode(&mut buf);
            assert!(buf.len() <= T::MAX_ENCODED_LEN.expect("bounded"));
            buf.len()
        }
        for v in [0, 127, 128, u32::MAX] {
            len((v, Side::Lower(v)));
            len((v, Side::Upper(v)));
            len(((v, v), Round2Value::MiddleNode(v)));
            len(((v, v), Round2Value::ClosingEdge));
        }
        assert_eq!(len((u32::MAX, Side::Upper(u32::MAX))), 11);
        assert_eq!(
            len(((u32::MAX, u32::MAX), Round2Value::MiddleNode(u32::MAX))),
            16
        );
        assert_eq!(len(((0u32, 0u32), Round2Value::ClosingEdge)), 3);
    }

    #[test]
    fn finds_every_triangle_exactly_once() {
        for seed in 0..3 {
            let g = generators::gnm(70, 420, seed);
            let serial = enumerate_triangles_serial(&g);
            let run = run_cascade_triangles(&g, &config());
            assert_eq!(run.count(), serial.count(), "seed {seed}");
            assert_eq!(run.duplicates(), 0);
        }
    }

    #[test]
    fn runs_as_a_two_round_pipeline_with_per_round_metrics() {
        let g = generators::gnm(60, 360, 8);
        let run = run_cascade_triangles(&g, &config());
        assert_eq!(run.round_metrics.len(), 2);
        assert_eq!(run.round_metrics[0].name, "wedge");
        assert_eq!(run.round_metrics[1].name, "closing");
        // Round 1 maps the m edges and ships two pairs per edge.
        assert_eq!(run.round_metrics[0].metrics.input_records, g.num_edges());
        assert_eq!(
            run.round_metrics[0].metrics.shuffle_records,
            2 * g.num_edges()
        );
        // Round 2 maps every wedge plus every edge, one pair each.
        let wedges = run.round_metrics[0].metrics.outputs;
        assert_eq!(
            run.round_metrics[1].metrics.input_records,
            wedges + g.num_edges()
        );
        // Bytes follow each round's weigher.
        let (r1_bytes, r2_bytes) = cascade_record_bytes();
        for (round, bytes) in run.round_metrics.iter().zip([r1_bytes, r2_bytes]) {
            assert_eq!(
                round.metrics.shuffle_bytes,
                (round.metrics.shuffle_records * bytes) as u64
            );
        }
        // The combined metrics add the rounds.
        assert_eq!(
            run.metrics.shuffle_records,
            run.round_metrics[0].metrics.shuffle_records
                + run.round_metrics[1].metrics.shuffle_records
        );
    }

    #[test]
    fn wedge_round_counts_ordered_two_paths() {
        // In K_n every ordered triple x < y < z is a wedge: C(n, 3) of them.
        let g = generators::complete(8);
        let (wedges, metrics) = wedge_round(&g, &config());
        assert_eq!(wedges.len(), 56);
        assert_eq!(metrics.shuffle_records, 2 * g.num_edges());
        for w in &wedges {
            assert!(w.x < w.y && w.y < w.z);
        }
    }

    #[test]
    fn communication_cost_is_two_m_plus_wedges_plus_m() {
        let g = generators::gnm(90, 600, 4);
        let (wedges, _) = wedge_round(&g, &config());
        let run = run_cascade_triangles(&g, &config());
        assert_eq!(
            run.metrics.shuffle_records,
            2 * g.num_edges() + wedges.len() + g.num_edges()
        );
    }

    #[test]
    fn skewed_graphs_make_the_cascade_expensive() {
        // On a power-law graph the wedge count blows up, so the cascade ships
        // far more data than the one-round bucket-ordered algorithm with a
        // moderate b — the paper's motivation for multiway joins.
        let g = generators::power_law(800, 4_000, 2.2, 9);
        let cascade = run_cascade_triangles(&g, &config());
        let one_round = RunStats::collect(|sink| {
            run_bucket_oriented(&catalog::triangle(), &g, 8, &config(), sink)
        });
        assert_eq!(cascade.count(), one_round.count());
        assert!(
            cascade.metrics.shuffle_records > one_round.metrics.shuffle_records,
            "cascade {} vs one-round {}",
            cascade.metrics.shuffle_records,
            one_round.metrics.shuffle_records
        );
    }

    #[test]
    fn triangle_free_graph_produces_wedges_but_no_triangles() {
        // An even cycle is triangle-free but still has ordered wedges (every
        // interior node of the identifier order has one lower and one upper
        // neighbour), so round 1 does real work and round 2 discards it all.
        let g = generators::cycle(12);
        let run = run_cascade_triangles(&g, &config());
        assert_eq!(run.count(), 0);
        assert!(run.metrics.shuffle_records > 3 * g.num_edges());
    }

    #[test]
    fn complete_bipartite_graphs_have_no_ordered_wedges() {
        // With one side holding all the smaller identifiers, no node has both
        // a lower and an upper neighbour, so the wedge round is empty and the
        // cascade ships exactly 3m pairs.
        let g = generators::complete_bipartite(6, 6);
        let run = run_cascade_triangles(&g, &config());
        assert_eq!(run.count(), 0);
        assert_eq!(run.metrics.shuffle_records, 3 * g.num_edges());
    }
}
