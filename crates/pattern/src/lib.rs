//! Sample ("pattern") graphs and the group theory the paper builds on.
//!
//! A *sample graph* `S` is the small graph (p nodes, typically 3–8) whose
//! instances we enumerate inside the large data graph `G`. This crate provides:
//!
//! * [`SampleGraph`] — a compact representation of `S` suitable for exhaustive
//!   analysis (p is assumed small, at most [`sample::MAX_PATTERN_NODES`]).
//! * [`catalog`] — the named sample graphs the paper uses: triangle, square
//!   (Fig. 3), lollipop (Fig. 4), cycles `C_p` (Fig. 8), cliques, stars, paths
//!   and hypercubes.
//! * [`automorphism`] — the automorphism group `Aut(S)` as a stabilizer chain
//!   found by backtracking over the graph (its order and orbits, never its
//!   elements), plus the coset representatives of `S_p / Aut(S)` that
//!   Theorem 3.1 turns into conjunctive queries.
//! * [`decompose`] — decompositions of `S` into node-disjoint pieces that are
//!   single edges, odd-length Hamilton-cycle subgraphs, or isolated nodes, as
//!   required by Theorem 7.2 for worst-case-optimal serial algorithms.
//! * [`instance`] — canonical representation of one instance of `S` inside the
//!   data graph, used to verify the paper's central "each instance exactly
//!   once" invariant.
//! * [`spec`] — inline edge-list specs (`a-b,b-c,c-a`) so ad-hoc patterns can
//!   be given on the command line or in a serve query without extending the
//!   catalog.

pub mod automorphism;
pub mod catalog;
pub mod decompose;
pub mod instance;
pub mod sample;
pub mod spec;

pub use automorphism::{automorphism_group, order_representatives, AutomorphismGroup, Permutation};
pub use instance::Instance;
pub use sample::{PatternNode, SampleGraph};
pub use spec::{normalize_spec_text, parse_spec, SpecError};

#[cfg(test)]
mod proptests;
