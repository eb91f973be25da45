//! The single-round map-reduce triangle algorithms compared in Section 2
//! (Figures 1 and 2).
//!
//! | algorithm | reducers | communication / edge |
//! |---|---|---|
//! | [`partition`] (Suri–Vassilvitskii \[19\]) | `C(b, 3) ≈ b³/6` | `(3/2)(b−1)(b−2)/b ≈ 3b/2` |
//! | [`multiway`] (Section 2.2, plain Afrati–Ullman join) | `b³` | `3b − 2` |
//! | [`crate::enumerate::bucket_oriented`] at `p = 3` (Section 2.3, hash-ordered nodes; see [`bucket_ordered`]) | `C(b+2, 3) ≈ b³/6` | `b` |
//!
//! What sets them apart is the map: every reducer runs the same serial
//! triangle algorithm, the triangle's symmetry-broken join
//! ([`crate::enumerate::bucket_oriented::sample_plan`]), as Theorem 6.1
//! allows. All of them run on the instrumented engine of
//! `subgraph-mapreduce`, so the benchmark harness reports *measured*
//! replication per edge next to the formulas above.

pub mod bucket_ordered;
pub mod cascade;
pub mod multiway;
pub mod partition;
