//! Single-round map-reduce enumeration of arbitrary sample graphs (Section 4).
//!
//! Three processing strategies, mirroring Section 4's taxonomy:
//!
//! * [`cq_oriented`] — one map-reduce job per conjunctive query, each with its
//!   own optimized shares (Section 4.1). Never better than the other two
//!   (Theorem 4.4) but the natural baseline.
//! * [`variable_oriented`] — all CQs evaluated in a single job; one share per
//!   variable, optimized over the combined cost expression where edges used in
//!   both orientations count twice (Section 4.3).
//! * [`bucket_oriented`] — one hash function, nodes ordered by bucket, one
//!   reducer per non-decreasing bucket multiset (Section 4.5, generalizing the
//!   Section 2.3 triangle algorithm).

pub mod bucket_oriented;
pub mod cq_oriented;
pub mod key;
pub mod variable_oriented;

pub use key::{KeySpace, KeySpaceError};

// The pre-planner free functions (`bucket_oriented_enumerate`,
// `variable_oriented_enumerate`, `cq_oriented_enumerate`) are gone: build an
// `EnumerationRequest`, force the strategy if needed, and `plan()/execute()`
// (or `run_with_sink()` for streaming results). The CQ-parameterized entry
// points (`bucket_oriented_with_cqs`, `single_cq_job`, `run_with_plan`) and
// their `_into` streaming variants remain public.

use crate::enumerate::bucket_oriented::vec_key_record_bytes;
use crate::result::RunStats;
use crate::sink::InstanceSink;
use std::collections::BTreeSet;
use subgraph_cq::{ConjunctiveQuery, JoinPlan, LocalGraph, Var};
use subgraph_graph::{DataGraph, Edge, IdOrder, NodeId};
use subgraph_mapreduce::{EngineConfig, MapContext, Pipeline, ReduceContext, Round};
use subgraph_pattern::Instance;

/// Per-variable hash of a data node into one of `share` buckets. Each variable
/// uses a different seed so the hash functions are independent, as the share
/// optimization assumes.
pub(crate) fn variable_bucket(node: NodeId, variable: u8, share: u32) -> u32 {
    if share <= 1 {
        return 0;
    }
    let mut x = (node as u64)
        .wrapping_add(0xa076_1d64_78bd_642f)
        .wrapping_add((variable as u64) << 32);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    (x % share as u64) as u32
}

/// One role an edge is shipped in: the tuple `E(u, v)` serving the subgoal
/// `E(a, b)` with `a → u`, `b → v`.
struct Role {
    a: Var,
    b: Var,
    /// Index contributions of the other variables' buckets, all combinations.
    free: Vec<u32>,
}

/// The map-reduce job of variable- and CQ-oriented processing (Sections 4.1,
/// 4.3): one reducer per vector of per-variable buckets. An edge goes, once
/// per distinct subgoal orientation `E(a, b)` of the queries, to every
/// reducer whose `a`- and `b`-buckets are those of its endpoints. A reducer
/// joins each query over its edges under the identifier order, letting
/// variable `X` bind only to nodes whose `X`-hash is the key's bucket for `X`
/// — which is what makes exactly one reducer find each solution, and prunes
/// the join at the first variable that hashes elsewhere.
pub(crate) fn run_share_vector_round(
    name: &str,
    cqs: &[ConjunctiveQuery],
    shares: &[u32],
    graph: &DataGraph,
    config: &EngineConfig,
    sink: &mut dyn InstanceSink,
) -> RunStats {
    let space = KeySpace::grid(shares).unwrap_or_else(|e| panic!("{name} round: {e}"));
    let subgoals: BTreeSet<(Var, Var)> = cqs
        .iter()
        .flat_map(|q| q.subgoals().iter().copied())
        .collect();
    let roles: Vec<Role> = subgoals
        .into_iter()
        .map(|(a, b)| Role {
            a,
            b,
            free: space.free_offsets(a as usize, b as usize),
        })
        .collect();

    let mapper = |edge: &Edge, ctx: &mut MapContext<u32, Edge>| {
        let (u, v) = edge.endpoints(); // u < v: the tuple E(u, v).
        for role in &roles {
            let (a, b) = (role.a as usize, role.b as usize);
            let base = variable_bucket(u, role.a, shares[a]) * space.stride(a)
                + variable_bucket(v, role.b, shares[b]) * space.stride(b);
            for offset in &role.free {
                ctx.emit(base + offset, *edge);
            }
        }
    };

    let plans: Vec<JoinPlan> = cqs.iter().map(JoinPlan::compile).collect();
    let reducer = |key: &u32, edges: &[Edge], ctx: &mut ReduceContext<Instance>| {
        let buckets = space.coords(*key);
        let local = LocalGraph::build(edges, &IdOrder);
        let mut work = edges.len() as u64;
        for plan in &plans {
            work += plan.run(
                &local,
                |var, node, _| {
                    let share = shares[var as usize];
                    variable_bucket(local.global(node), var, share) == buckets[var as usize]
                },
                |assignment| ctx.emit(plan.instance(&local, assignment)),
            );
        }
        ctx.add_work(work);
    };

    let record_bytes = vec_key_record_bytes(shares.len());
    let report = Pipeline::new()
        .round(
            Round::new(name, mapper, reducer).record_bytes(move |_: &u32, _: &Edge| record_bytes),
        )
        .run_with_sink(graph.edges(), config, sink);
    RunStats::from_pipeline(report).with_key_space(&space)
}

/// Rounds the real-valued optimal shares to integers (at least 1 each), the
/// form the engine needs.
pub(crate) fn integer_shares(shares: &[f64]) -> Vec<u32> {
    shares.iter().map(|&s| s.round().max(1.0) as u32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variable_bucket_is_within_range_and_seeded_per_variable() {
        for node in 0..200u32 {
            for var in 0..6u8 {
                assert!(variable_bucket(node, var, 7) < 7);
            }
        }
        // Different variables use genuinely different hash functions.
        let same = (0..200u32)
            .filter(|&n| variable_bucket(n, 0, 16) == variable_bucket(n, 1, 16))
            .count();
        assert!(same < 60, "hashes for different variables look identical");
        assert_eq!(variable_bucket(42, 3, 1), 0);
    }

    #[test]
    fn integer_share_rounding() {
        assert_eq!(integer_shares(&[0.4, 1.0, 2.5, 9.7]), vec![1, 1, 3, 10]);
    }
}
