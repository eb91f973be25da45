//! Share (bucket-count) optimization for multiway joins, after Afrati–Ullman.
//!
//! Section 4 of the paper minimizes the *communication cost* of evaluating the
//! CQs for a sample graph in one map-reduce round. Each variable `X` of a CQ
//! gets a **share** `x`: the number of buckets its values are hashed into. A
//! reducer is a list of bucket numbers, one per variable, so the number of
//! reducers is the product of the shares. A tuple for a relational subgoal
//! must be replicated to every combination of buckets of the variables *not*
//! appearing in that subgoal, so the communication cost is a sum of terms —
//! one per subgoal — each being the relation size times the product of the
//! missing variables' shares.
//!
//! * [`expr`] — the cost expression (terms, coefficients 1 or 2 for
//!   unidirectional/bidirectional edges in variable-oriented processing).
//! * [`dominance`] — the dominated-variable rule (a dominated variable's share
//!   may be fixed to 1).
//! * [`bound`] — admissible Shares lower bounds for partial node orderings
//!   (the pruning rule of the planner's branch-and-bound search) and the
//!   expression signatures its orbit memoization keys on.
//! * [`solver`] — numeric minimization of the expression subject to a fixed
//!   number of reducers (product of shares), via damped Newton in log space
//!   on the paper's equal-sums Lagrangian conditions.
//! * [`regular`] — closed forms for regular sample graphs (Theorems 4.1, 4.3).
//! * [`counting`] — reducer-count combinatorics for hash-ordered processing
//!   (Theorem 4.2 and the Section 4.5 comparison with generalized Partition).

pub mod bound;
pub mod counting;
pub mod dominance;
pub mod expr;
pub mod regular;
pub mod solver;

pub use bound::{expression_signature, partial_cost_expression, ExpressionSignature};
pub use dominance::dominated_variables;
pub use expr::{CostExpression, Term};
pub use regular::{regular_equal_shares, two_level_shares};
pub use solver::{optimize_shares, SharesSolution};

#[cfg(test)]
mod proptests;
