//! Numeric minimization of a communication-cost expression subject to a fixed
//! number of reducers (Section 4.1, and Section 4.3.2 for the general case).
//!
//! The expression `f = Σ_t c_t · Π_{v ∈ t} s_v` is a posynomial in the shares,
//! hence convex in the logarithms `u_v = ln s_v`, and the constraint
//! `Π s_v = k` becomes linear (`Σ u_v = ln k`). The paper's Lagrangean
//! conditions — every free variable's term sum is equal — are the KKT
//! conditions of that convex program, so damped Newton on them converges to
//! the global optimum:
//!
//! * the gradient of `f` in `u` is the vector of per-variable term sums, and
//!   the Hessian is `Σ_t c_t e^{a_t·u} a_t a_tᵀ` (`a_t` the 0/1 vector of the
//!   term's missing free variables), at most 16 × 16;
//! * each step solves the Hessian bordered by the constraint row, so it stays
//!   on `Σ u = ln k`. Where the optimum is a family (Examples 4.2 and 4.3) the
//!   Hessian is singular along it; a ridge of `1e-12 ×` its largest diagonal
//!   entry keeps the system solvable. `f` is constant along the Hessian's
//!   null space, so the gradient has no component there and neither has the
//!   exact step; projecting each step onto the Hessian's range (the span of
//!   the `a_t`, the same for every `u`) drops the roundoff the ridge would
//!   amplify there, so the iterates stay on the family member the start
//!   projects to;
//! * an Armijo backtracking line search keeps every step a descent step;
//! * the iteration stops once [`optimality_gap`] is at most `1e-12`, or after
//!   50 steps. Every expression the planner builds for the catalog
//!   converges in at most a dozen steps; zero or one free variable is
//!   answered in closed form.

use crate::expr::CostExpression;
use crate::regular::optimality_gap;

/// The outcome of a share optimization.
#[derive(Clone, Debug)]
pub struct SharesSolution {
    /// Optimal (real-valued) share per variable; dominated variables have share 1.
    pub shares: Vec<f64>,
    /// Per-edge communication cost `Σ c_t Π s_v` at the optimum (multiply by
    /// the data-graph edge count to get the absolute communication cost).
    pub cost_per_edge: f64,
    /// The reducer budget `k` the optimization was run with.
    pub reducers: f64,
    /// Largest relative gap between the per-variable Lagrangian sums at the
    /// solution ([`optimality_gap`]; 0 means the optimality conditions hold
    /// exactly).
    pub optimality_gap: f64,
}

/// The stopping rule: the per-variable Lagrangean sums agree to this relative
/// spread.
const GAP_TOLERANCE: f64 = 1e-12;

/// Newton steps before the solver gives up on the stopping rule (only an
/// expression whose optimum is not attained can need that many).
pub(crate) const MAX_ITERATIONS: usize = 50;

/// Ridge added to the Hessian's diagonal, relative to its largest entry.
const RIDGE: f64 = 1e-12;

/// Armijo's sufficient-decrease fraction of the predicted descent.
const ARMIJO: f64 = 1e-4;

/// Largest change of one log-share in a single step (a factor of ~3000 in the
/// share): only the first steps on an expression without a finite optimum
/// reach it.
const MAX_LOG_STEP: f64 = 8.0;

/// Minimizes `expr` subject to the product of the *free* shares equalling `k`.
/// Dominated (pinned) variables keep share 1.
pub fn optimize_shares(expr: &CostExpression, k: f64) -> SharesSolution {
    solve(expr, k).0
}

/// [`optimize_shares`] plus the number of Newton steps it took.
pub(crate) fn solve(expr: &CostExpression, k: f64) -> (SharesSolution, usize) {
    assert!(k >= 1.0, "the reducer budget must be at least 1");
    let free = expr.free_vars();
    let mut shares = vec![1.0f64; expr.num_vars()];
    if expr.terms().is_empty() || free.is_empty() {
        return (finish(expr, shares, k), 0);
    }
    if let [only] = free[..] {
        shares[only as usize] = k;
        return (finish(expr, shares, k), 0);
    }
    // Each term as (coefficient, positions of its missing free variables).
    let mut position = vec![usize::MAX; expr.num_vars()];
    for (i, &v) in free.iter().enumerate() {
        position[v as usize] = i;
    }
    let terms: Vec<(f64, Vec<usize>)> = (expr.terms().iter())
        .map(|t| {
            let missing = (t.missing.iter())
                .map(|&v| position[v as usize])
                .filter(|&i| i != usize::MAX)
                .collect();
            (t.coefficient, missing)
        })
        .collect();
    let weight = |(c, missing): &(f64, Vec<usize>), u: &[f64]| {
        c * missing.iter().map(|&i| u[i]).sum::<f64>().exp()
    };
    let objective = |u: &[f64]| -> f64 { terms.iter().map(|term| weight(term, u)).sum() };
    let n = free.len();
    let span = term_span(&terms, n);

    let log_k = k.ln();
    let mut u = vec![log_k / n as f64; n];
    let mut iterations = 0;
    loop {
        for (i, &v) in free.iter().enumerate() {
            shares[v as usize] = u[i].exp();
        }
        if iterations == MAX_ITERATIONS || optimality_gap(expr, &shares) <= GAP_TOLERANCE {
            break;
        }
        iterations += 1;
        // Gradient (the per-variable sums) and Hessian in one pass.
        let mut value = 0.0;
        let mut gradient = vec![0.0; n];
        let mut hessian = vec![vec![0.0; n]; n];
        for term in &terms {
            let w = weight(term, &u);
            value += w;
            for &i in &term.1 {
                gradient[i] += w;
                for &j in &term.1 {
                    hessian[i][j] += w;
                }
            }
        }
        // Only the gradient's deviation from its mean moves along `Σ u =
        // const`; centring it keeps the last steps' few-ulp signal from
        // drowning in the mean.
        let mean = gradient.iter().sum::<f64>() / n as f64;
        gradient.iter_mut().for_each(|g| *g -= mean);
        let Some(mut step) = newton_step(&gradient, hessian) else {
            break;
        };
        if span.len() < n {
            // The exact step lies in the Hessian's range; what the ridge adds
            // outside it is roundoff, and would drift along an optimal family.
            step = span.iter().fold(vec![0.0; n], |mut projected, q| {
                let c = dot(q, &step);
                projected.iter_mut().zip(q).for_each(|(p, x)| *p += c * x);
                projected
            });
        }
        let longest = step.iter().fold(0.0f64, |m, d| m.max(d.abs()));
        if longest > MAX_LOG_STEP {
            step.iter_mut().for_each(|d| *d *= MAX_LOG_STEP / longest);
        }
        let slope: f64 = gradient.iter().zip(&step).map(|(g, d)| g * d).sum();
        if slope.is_nan() || slope >= 0.0 {
            break;
        }
        // Backtrack until Armijo holds. The slack of a few ulps of `f` lets a
        // step whose decrease is below `f`'s resolution — the last steps of
        // quadratic convergence — through whole.
        let slack = 8.0 * f64::EPSILON * value;
        let mut alpha = 1.0;
        let Some(accepted) = (loop {
            let mut trial: Vec<f64> = u.iter().zip(&step).map(|(x, d)| x + alpha * d).collect();
            renormalize(&mut trial, log_k);
            if objective(&trial) <= value + ARMIJO * alpha * slope + slack {
                break Some(trial);
            }
            alpha *= 0.5;
            if alpha < 1e-12 {
                break None;
            }
        }) else {
            break;
        };
        u = accepted;
    }
    (finish(expr, shares, k), iterations)
}

fn finish(expr: &CostExpression, shares: Vec<f64>, k: f64) -> SharesSolution {
    SharesSolution {
        cost_per_edge: expr.evaluate(&shares),
        optimality_gap: optimality_gap(expr, &shares),
        shares,
        reducers: k,
    }
}

/// The Newton direction on `Σ u = const`: solves the ridged Hessian bordered
/// by the constraint row,
///
/// ```text
/// [ H + εI  1 ] [ d ]   [ −g ]
/// [ 1ᵀ      0 ] [ λ ] = [  0 ]
/// ```
///
/// by Gaussian elimination with partial pivoting, after scaling `H` and `g`
/// by the largest diagonal entry (which leaves `d` unchanged; so does adding a
/// constant to `g`, which only moves `λ`). `None` when the Hessian is zero.
fn newton_step(gradient: &[f64], hessian: Vec<Vec<f64>>) -> Option<Vec<f64>> {
    let n = gradient.len();
    let scale = (0..n).map(|i| hessian[i][i]).fold(0.0f64, f64::max);
    if !(scale > 0.0 && scale.is_finite()) {
        return None;
    }
    // The augmented (n + 1) × (n + 2) system.
    let mut m: Vec<Vec<f64>> = hessian
        .into_iter()
        .enumerate()
        .map(|(i, mut row)| {
            row.iter_mut().for_each(|h| *h /= scale);
            row[i] += RIDGE;
            row.push(1.0);
            row.push(-gradient[i] / scale);
            row
        })
        .collect();
    let mut border = vec![1.0; n];
    border.extend([0.0, 0.0]);
    m.push(border);
    for col in 0..=n {
        let pivot = (col..=n)
            .max_by(|&a, &b| m[a][col].abs().total_cmp(&m[b][col].abs()))
            .expect("non-empty column");
        if m[pivot][col] == 0.0 {
            return None;
        }
        m.swap(col, pivot);
        let (top, below) = m.split_at_mut(col + 1);
        let pivot_row = &top[col];
        for row in below {
            let factor = row[col] / pivot_row[col];
            if factor != 0.0 {
                for (x, p) in row[col..].iter_mut().zip(&pivot_row[col..]) {
                    *x -= factor * p;
                }
            }
        }
    }
    let mut x = vec![0.0; n + 1];
    for row in (0..=n).rev() {
        let tail: f64 = (row + 1..=n).map(|j| m[row][j] * x[j]).sum();
        x[row] = (m[row][n + 1] - tail) / m[row][row];
    }
    x.truncate(n);
    x.iter().all(|d| d.is_finite()).then_some(x)
}

/// An orthonormal basis of the span of the terms' 0/1 vectors `a_t` (Gram–
/// Schmidt, twice per vector): the range of the Hessian `Σ_t w_t a_t a_tᵀ`
/// for any positive weights, so computed once per solve.
fn term_span(terms: &[(f64, Vec<usize>)], n: usize) -> Vec<Vec<f64>> {
    let mut basis: Vec<Vec<f64>> = Vec::new();
    for (_, missing) in terms {
        if basis.len() == n {
            break;
        }
        let mut v = vec![0.0; n];
        missing.iter().for_each(|&i| v[i] = 1.0);
        let length = dot(&v, &v).sqrt();
        for _ in 0..2 {
            for q in &basis {
                let c = dot(q, &v);
                v.iter_mut().zip(q).for_each(|(x, y)| *x -= c * y);
            }
        }
        let norm = dot(&v, &v).sqrt();
        if norm > 1e-9 * length {
            v.iter_mut().for_each(|x| *x /= norm);
            basis.push(v);
        }
    }
    basis
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Moves `log_shares` back onto `Σ u = log_k` (rounding drifts off it).
fn renormalize(log_shares: &mut [f64], log_k: f64) {
    let total: f64 = log_shares.iter().sum();
    let correction = (log_k - total) / log_shares.len() as f64;
    for u in log_shares.iter_mut() {
        *u += correction;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dominance::single_cq_expression_with_dominance;
    use crate::expr::CostExpression;
    use subgraph_cq::cqs_for_sample;
    use subgraph_pattern::catalog;

    fn lollipop_identity_expr() -> CostExpression {
        let cq = cqs_for_sample(&catalog::lollipop())
            .into_iter()
            .find(|q| q.subgoals() == [(0, 1), (1, 2), (1, 3), (2, 3)])
            .unwrap();
        single_cq_expression_with_dominance(&cq)
    }

    /// `|a − b| ≤ 1e-9 · |b|`.
    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * b.abs()
    }

    #[test]
    fn example_4_1_lollipop_shares() {
        // At k = 750 the optimum is w=1, x=30, y=z=5 with cost 65 per edge.
        let expr = lollipop_identity_expr();
        let solution = optimize_shares(&expr, 750.0);
        let s = &solution.shares;
        assert_eq!(s[0], 1.0);
        assert!(close(s[1], 30.0), "x = {}", s[1]);
        assert!(close(s[2], 5.0), "y = {}", s[2]);
        assert!(close(s[3], 5.0), "z = {}", s[3]);
        assert!(close(solution.cost_per_edge, 65.0));
        assert!(solution.optimality_gap <= 1e-12);
    }

    #[test]
    fn example_4_1_structure_holds_for_other_budgets() {
        // The optimality conditions give z = y and x = y² + y for any budget.
        let expr = lollipop_identity_expr();
        for k in [200.0, 2000.0, 20_000.0] {
            let s = optimize_shares(&expr, k);
            let (x, y, z) = (s.shares[1], s.shares[2], s.shares[3]);
            assert!(close(z, y), "y={y} z={z}");
            assert!(close(x, y * y + y), "x={x} y={y}");
            assert!(s.optimality_gap <= 1e-12);
        }
    }

    #[test]
    fn example_4_2_square_variable_oriented() {
        // Cost = yz + 2wz + 2wx + xy; optimum satisfies x = z, y = 2w and the
        // cost is 4√(2k) per edge.
        let cqs = cqs_for_sample(&catalog::square());
        let expr = CostExpression::from_cq_collection(&cqs);
        for k in [128.0, 512.0, 5000.0] {
            let s = optimize_shares(&expr, k);
            let (w, x, y, z) = (s.shares[0], s.shares[1], s.shares[2], s.shares[3]);
            assert!(close(x, z), "x={x} z={z}");
            assert!(close(y, 2.0 * w), "w={w} y={y}");
            let expected = 4.0 * (2.0 * k).sqrt();
            assert!(
                close(s.cost_per_edge, expected),
                "cost {} vs expected {expected}",
                s.cost_per_edge
            );
        }
    }

    #[test]
    fn triangle_equal_shares() {
        // Theorem 4.1: for a regular sample graph all shares are equal (³√k).
        let cqs = cqs_for_sample(&catalog::triangle());
        let expr = CostExpression::from_single_cq(&cqs[0]);
        let (s, iterations) = solve(&expr, 729.0);
        for v in 0..3 {
            assert!(close(s.shares[v], 9.0), "share {v} = {}", s.shares[v]);
        }
        assert!(close(s.cost_per_edge, 27.0));
        // The symmetric start is already optimal.
        assert_eq!(iterations, 0);
    }

    #[test]
    fn hexagon_variable_oriented_matches_example_4_3() {
        // Theorem 4.3 case (a): X1 gets half the share of the others.
        // With k = 500 000: X1 = 5, the rest 10; cost per edge = 6·10⁴
        // (the paper's Example 4.3 reports 5·10⁴·e total, i.e. 5·10¹³ for
        // m = 10⁹; evaluating its own optimum shares gives 6·10⁴ per edge —
        // the gap is unexplained).
        let cqs = cqs_for_sample(&catalog::cycle(6));
        let expr = CostExpression::from_cq_collection(&cqs);
        // Exactly the four non-X1 edges must be bidirectional.
        assert!(!expr.is_bidirectional(0, 1));
        assert!(!expr.is_bidirectional(0, 5));
        for (a, b) in [(1, 2), (2, 3), (3, 4), (4, 5)] {
            assert!(
                expr.is_bidirectional(a, b),
                "({a},{b}) should be bidirectional"
            );
        }
        let s = optimize_shares(&expr, 500_000.0);
        // Like Example 4.2, the optimum is a one-parameter family (scaling the
        // odd-position shares up and the even-position shares down leaves every
        // term unchanged). The invariants that hold across the whole optimal
        // family — and at the paper's symmetric pick (5, 10, 10, 10, 10, 10) —
        // are: the X2/X4/X6 shares are equal, the X3/X5 shares are equal and
        // twice the X1 share, X1·X2 = 50, and the cost per edge is 6·10⁴.
        let sh = &s.shares;
        assert!(close(sh[1], sh[3]) && close(sh[3], sh[5]), "{sh:?}");
        assert!(close(sh[2], sh[4]), "{sh:?}");
        assert!(close(sh[2], 2.0 * sh[0]), "{sh:?}");
        assert!(close(sh[0] * sh[1], 50.0), "a·b = {}", sh[0] * sh[1]);
        assert!(close(s.cost_per_edge, 60_000.0), "cost {}", s.cost_per_edge);
    }

    #[test]
    fn single_free_variable_is_closed_form() {
        // Every star leaf is dominated by the centre: the answer is s = k.
        let cq = &cqs_for_sample(&catalog::star(6))[0];
        let expr = single_cq_expression_with_dominance(cq);
        let (s, iterations) = solve(&expr, 750.0);
        assert_eq!(iterations, 0);
        assert_eq!(s.shares[0], 750.0);
        assert_eq!(s.cost_per_edge, 5.0);
        assert_eq!(s.optimality_gap, 0.0);
    }

    #[test]
    fn expressions_without_a_finite_optimum_stop_at_the_cap() {
        // Without the dominance rule a star's centre is in every term, so its
        // share grows without bound at a falling cost.
        let cq = &cqs_for_sample(&catalog::star(6))[0];
        let expr = CostExpression::from_single_cq(cq);
        let (s, iterations) = solve(&expr, 750.0);
        assert!(iterations <= MAX_ITERATIONS);
        assert!(s.shares.iter().all(|x| x.is_finite() && *x > 0.0));
        let equal_shares = 5.0 * 750f64.powf(4.0 / 6.0);
        assert!(s.cost_per_edge.is_finite() && s.cost_per_edge < equal_shares);
        assert_eq!(s.optimality_gap, 1.0);
    }

    #[test]
    fn budget_of_one_gives_unit_shares() {
        let cqs = cqs_for_sample(&catalog::triangle());
        let expr = CostExpression::from_single_cq(&cqs[0]);
        let s = optimize_shares(&expr, 1.0);
        for v in 0..3 {
            assert!((s.shares[v] - 1.0).abs() < 1e-12);
        }
        assert!((s.cost_per_edge - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn budget_below_one_is_rejected() {
        let cqs = cqs_for_sample(&catalog::triangle());
        let expr = CostExpression::from_single_cq(&cqs[0]);
        let _ = optimize_shares(&expr, 0.5);
    }
}
