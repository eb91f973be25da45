//! The three single-round map-reduce triangle algorithms compared in
//! Section 2 (Figures 1 and 2).
//!
//! | algorithm | reducers | communication / edge |
//! |---|---|---|
//! | [`partition`] (Suri–Vassilvitskii \[19\]) | `C(b, 3) ≈ b³/6` | `(3/2)(b−1)(b−2)/b ≈ 3b/2` |
//! | [`multiway`] (Section 2.2, plain Afrati–Ullman join) | `b³` | `3b − 2` |
//! | [`bucket_ordered`] (Section 2.3, hash-ordered nodes) | `C(b+2, 3) ≈ b³/6` | `b` |
//!
//! All three run on the instrumented engine of `subgraph-mapreduce`, so the
//! benchmark harness reports *measured* replication per edge next to the
//! formulas above.

pub mod bucket_ordered;
pub mod cascade;
pub mod multiway;
pub mod partition;

// The pre-planner free functions (`bucket_ordered_triangles`,
// `partition_triangles`, `multiway_triangles`, `cascade_triangles`) are gone:
// build an `EnumerationRequest` for the `"triangle"` pattern, force the
// strategy if needed, and `plan()/execute()` (or `run_with_sink()` for
// streaming results). `cascade::wedge_round` remains public for inspecting
// the intermediate wedge stream.

use subgraph_cq::LocalGraph;
use subgraph_pattern::PatternNode;

/// The triangle's edges over pattern nodes `0, 1, 2`.
pub(crate) const TRIANGLE_EDGES: [(PatternNode, PatternNode); 3] = [(0, 1), (0, 2), (1, 2)];

/// The serial triangle algorithm of Section 2 over a reducer's local graph:
/// for every node `v`, every pair `u < w` of its successors is a properly
/// ordered 2-path, closed into a triangle when `w` is a successor of `u`.
/// `visit` receives each triangle as local ids `[v, u, w]`, ascending in the
/// graph's order; the return value is the number of 2-paths examined — the
/// work the paper's `O(m^{3/2})` bound counts.
pub(crate) fn local_triangles(local: &LocalGraph, mut visit: impl FnMut([u32; 3])) -> u64 {
    let mut work = 0;
    for v in 0..local.num_nodes() as u32 {
        let later = local.successors(v);
        for (i, &u) in later.iter().enumerate() {
            let closing = local.successors(u);
            for &w in &later[i + 1..] {
                work += 1;
                if closing.binary_search(&w).is_ok() {
                    visit([v, u, w]);
                }
            }
        }
    }
    work
}
