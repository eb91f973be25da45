//! Conjunctive queries with arithmetic comparisons (Sections 3–5 of the paper).
//!
//! The paper expresses "find all instances of sample graph `S`" as a small
//! collection of *conjunctive queries* (CQs) over the single edge relation
//! `E(X, Y)`, which stores each undirected data-graph edge exactly once with
//! `X < Y` under a chosen total order of the data-graph nodes. Each CQ also
//! carries arithmetic comparisons (`<`, `≠`) among its variables; together the
//! CQs produce **every instance of `S` exactly once**.
//!
//! * [`query`] — the CQ data model ([`ConjunctiveQuery`], [`CqGroup`]) and the
//!   paper-style textual rendering used by the reproduction tables.
//! * [`generate`] — Section 3.1–3.2: one CQ per representative of
//!   `S_p / Aut(S)` (Theorem 3.1).
//! * [`orientation`] — Section 3.3: merging CQs that share an edge orientation
//!   by OR-ing their arithmetic conditions (Figures 5–7).
//! * [`cycles`] — Section 5: the smaller CQ families for cycles `C_p` obtained
//!   from run sequences of up/down edges, including the palindrome/periodicity
//!   corrections of Section 5.2 (Theorem 5.1).
//! * [`local`] — a reducer's input edges relabelled to dense ids in the
//!   evaluation order ([`LocalGraph`]).
//! * [`eval`] — the compiled join kernel ([`JoinPlan`]) the reducers run over
//!   a local graph, and serial evaluation of CQs over a whole data graph.

pub mod cycles;
pub mod eval;
pub mod generate;
pub mod local;
pub mod orientation;
pub mod partial;
pub mod query;

pub use cycles::{cycle_cqs, CycleCq};
pub use eval::{
    evaluate_cq, evaluate_cq_filtered, evaluate_cq_group, evaluate_cqs, EvalOutcome, JoinPlan,
};
pub use generate::{cq_for_ordering, cqs_for_sample, representative_subgoals};
pub use local::LocalGraph;
pub use orientation::{merge_by_orientation, simplified_constraints};
pub use partial::PartialCq;
pub use query::{ConjunctiveQuery, Constraint, CqGroup, Var};

#[cfg(test)]
mod proptests;
