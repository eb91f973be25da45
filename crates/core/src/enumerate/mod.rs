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

pub use key::BucketKey;

// The pre-planner free functions (`bucket_oriented_enumerate`,
// `variable_oriented_enumerate`, `cq_oriented_enumerate`) are gone: build an
// `EnumerationRequest`, force the strategy if needed, and `plan()/execute()`
// (or `run_with_sink()` for streaming results). The CQ-parameterized entry
// points (`bucket_oriented_with_cqs`, `single_cq_job`, `run_with_plan`) and
// their `_into` streaming variants remain public.

use subgraph_cq::{JoinPlan, LocalGraph};
use subgraph_graph::{Edge, IdOrder, NodeId};
use subgraph_mapreduce::ReduceContext;
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

/// The reducer of variable- and CQ-oriented processing (Sections 4.1, 4.3):
/// joins each compiled query over the reducer's edges under the identifier
/// order, letting variable `X` bind only to nodes whose `X`-hash is the key's
/// bucket for `X` — which is what makes exactly one reducer find each
/// solution, and prunes the join at the first variable that hashes elsewhere.
pub(crate) fn reduce_by_variable_buckets(
    plans: &[JoinPlan],
    shares: &[u32],
    key: &BucketKey,
    edges: &[Edge],
    ctx: &mut ReduceContext<Instance>,
) {
    let local = LocalGraph::build(edges, &IdOrder);
    let mut work = edges.len() as u64;
    for plan in plans {
        work += plan.run(
            &local,
            |var, node, _| {
                let share = shares[var as usize];
                variable_bucket(local.global(node), var, share) == key.coord(var as usize)
            },
            |assignment| ctx.emit(plan.instance(&local, assignment)),
        );
    }
    ctx.add_work(work);
}

/// Rounds the real-valued optimal shares to integers (at least 1 each), the
/// form the engine needs.
pub(crate) fn integer_shares(shares: &[f64]) -> Vec<u32> {
    shares.iter().map(|&s| s.round().max(1.0) as u32).collect()
}

/// Enumerates every non-decreasing sequence of `len` bucket numbers in
/// `0..buckets`, calling `visit` for each.
pub(crate) fn nondecreasing_sequences(buckets: u32, len: usize, visit: &mut dyn FnMut(&[u32])) {
    fn recurse(
        buckets: u32,
        len: usize,
        start: u32,
        prefix: &mut Vec<u32>,
        visit: &mut dyn FnMut(&[u32]),
    ) {
        if prefix.len() == len {
            visit(prefix);
            return;
        }
        for next in start..buckets {
            prefix.push(next);
            recurse(buckets, len, next, prefix, visit);
            prefix.pop();
        }
    }
    let mut prefix = Vec::with_capacity(len);
    recurse(buckets, len, 0, &mut prefix, visit);
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

    #[test]
    fn nondecreasing_sequence_counts_match_the_binomial() {
        for (b, len, expected) in [(3u32, 2usize, 6usize), (5, 3, 35), (4, 0, 1), (10, 2, 55)] {
            let mut count = 0usize;
            nondecreasing_sequences(b, len, &mut |seq| {
                assert!(seq.windows(2).all(|w| w[0] <= w[1]));
                count += 1;
            });
            assert_eq!(count, expected, "b={b} len={len}");
        }
    }
}
