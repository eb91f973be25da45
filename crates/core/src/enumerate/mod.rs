//! Single-round map-reduce enumeration of arbitrary sample graphs (Section 4).
//!
//! Three processing strategies, mirroring Section 4's taxonomy:
//!
//! * [`cq_oriented`] — one map-reduce job per conjunctive query, each with its
//!   own optimized shares (Section 4.1). Never better than the other two
//!   (Theorem 4.4) but the natural baseline.
//! * [`variable_oriented`] — all CQs evaluated in a single job, by one join
//!   per reducer; one share per variable, optimized over the combined cost
//!   expression where edges used in both orientations count twice
//!   (Section 4.3).
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
use subgraph_cq::{JoinPlan, LocalGraph, Var};
use subgraph_graph::{DataGraph, Edge, IdOrder, NodeId};
use subgraph_mapreduce::{EngineConfig, MapContext, ReduceContext, Round};
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
/// per distinct role `E(a, b)` of the plans ([`JoinPlan::roles`]), to every
/// reducer whose `a`- and `b`-buckets are those of its endpoints. A reducer
/// runs each plan over its edges under the identifier order, letting
/// variable `X` bind only to nodes whose `X`-hash is the key's bucket for `X`
/// — which is what makes exactly one reducer find each solution, and prunes
/// the join at the first variable that hashes elsewhere.
pub(crate) fn run_share_vector_round(
    name: &str,
    plans: &[JoinPlan],
    shares: &[u32],
    graph: &DataGraph,
    config: &EngineConfig,
    sink: &mut dyn InstanceSink,
) -> RunStats {
    let space = KeySpace::grid(shares).unwrap_or_else(|e| panic!("{name} round: {e}"));
    let distinct: BTreeSet<(Var, Var)> = (plans.iter())
        .flat_map(|plan| plan.roles().iter().copied())
        .collect();
    let roles: Vec<Role> = distinct
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

    let min_degree = least_min_degree(plans);
    let reducer = |key: &u32, edges: &[Edge], ctx: &mut ReduceContext<Instance>| {
        let buckets = space.coords(*key);
        let local = LocalGraph::build(edges, &IdOrder, min_degree);
        let mut work = edges.len() as u64;
        for plan in plans {
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
    let metrics = Round::new(name, mapper, reducer)
        .record_bytes(move |_: &u32, _: &Edge| record_bytes)
        .run(graph.edges(), config, sink);
    RunStats::single_round(name, metrics).with_key_space(&space)
}

/// The degree below which a reducer's node can be in no match of any of
/// `plans` — the least of their [`JoinPlan::min_degree`]s, 0 for no plan —
/// so its local graph is built without the edges of such nodes.
pub(crate) fn least_min_degree(plans: &[JoinPlan]) -> usize {
    plans.iter().map(JoinPlan::min_degree).min().unwrap_or(0)
}

/// Rounds the real-valued optimal shares for `k` reducers to integers, the
/// form the engine needs: every share at least 1 and their product, the
/// reducers the grid uses, at most `max(k, 1)`. Each share starts at its
/// floor (at least 1); while that grid is over budget — shares below 1 were
/// raised — the largest share (the first of equals) drops by one; then, in
/// order of falling remainder, each share whose raise still fits the budget
/// goes up by one.
pub(crate) fn integer_shares(shares: &[f64], k: usize) -> Vec<u32> {
    let budget = k.max(1) as u128;
    let mut ints: Vec<u128> = shares.iter().map(|&s| s.floor().max(1.0) as u128).collect();
    let capped =
        |ints: &[u128], cap: u128| (ints.iter()).fold(1u128, |p, &s| p.saturating_mul(s.min(cap)));
    let top = ints.iter().copied().max().unwrap_or(1);
    if capped(&ints, top) > budget {
        // Dropping the largest share by one at a time first brings every
        // share down to `hi`, the least cap still over budget, then drops
        // the shares at `hi` to `hi - 1` in order until the grid fits.
        let (mut lo, mut hi) = (1, top);
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if capped(&ints, mid) <= budget {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        ints.iter_mut().for_each(|s| *s = (*s).min(hi));
        for i in 0..ints.len() {
            if capped(&ints, hi) <= budget {
                break;
            }
            if ints[i] == hi {
                ints[i] = lo;
            }
        }
    }
    let others = |ints: &[u128], skip: usize| {
        (ints.iter().enumerate())
            .filter(|&(j, _)| j != skip)
            .fold(1u128, |p, (_, &s)| p.saturating_mul(s))
    };
    let remainder = |ints: &[u128], i: usize| shares[i] - ints[i] as f64;
    let mut order: Vec<usize> = (0..ints.len()).collect();
    order.sort_by(|&a, &b| remainder(&ints, b).total_cmp(&remainder(&ints, a)));
    for i in order {
        if remainder(&ints, i) > 0.0 && others(&ints, i).saturating_mul(ints[i] + 1) <= budget {
            ints[i] += 1;
        }
    }
    ints.into_iter()
        .map(|s| s.min(u32::MAX.into()) as u32)
        .collect()
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
        // Floors [1, 1, 2, 9] fit 30: raise by remainder, 9.7 then 2.5.
        assert_eq!(integer_shares(&[0.4, 1.0, 2.5, 9.7], 30), vec![1, 1, 3, 10]);
        // ... but not 10 (0.4 was raised): 9 drops to the 5 that fits, and
        // no raise fits after it.
        assert_eq!(integer_shares(&[0.4, 1.0, 2.5, 9.7], 10), vec![1, 1, 2, 5]);
        // Equal shares drop in turn, the first of equals first.
        assert_eq!(integer_shares(&[0.5, 4.0, 4.0], 9), vec![1, 3, 3]);
        assert_eq!(integer_shares(&[0.5, 4.0, 4.0], 12), vec![1, 3, 4]);
        assert_eq!(integer_shares(&[0.5, 2.0], 0), vec![1, 1]);
        assert_eq!(integer_shares(&[5e9], 7), vec![7]);
        // Huge equal shares level down in a few steps, not one per unit.
        assert_eq!(integer_shares(&[0.5, 1e15, 1e15], 64), vec![1, 8, 8]);
        assert_eq!(integer_shares(&[0.5, 1e15, 1e15], 63), vec![1, 7, 9]);
    }

    #[test]
    fn integer_shares_stay_within_the_reducer_budget() {
        use subgraph_pattern::catalog;
        let mut samples: Vec<_> = catalog::entries().into_iter().map(|e| e.sample).collect();
        samples.extend([catalog::cycle(6), catalog::star(6), catalog::path(6)]);
        for k in [1, 64, 750, 4096] {
            for sample in &samples {
                let (vo, _) = variable_oriented::optimize(&bucket_oriented::sample_plan(sample), k);
                let cq = cq_oriented::class_job_solution(sample, k);
                for shares in [vo, integer_shares(&cq.shares, k)] {
                    assert!(shares.iter().all(|&s| s >= 1), "{shares:?}");
                    let grid: usize = shares.iter().map(|&s| s as usize).product();
                    assert!(grid <= k, "k {k}: {shares:?} uses {grid} reducers");
                }
            }
        }
    }
}
