//! The reducer join kernel: compiled evaluation of conjunctive queries over
//! an order-relabelled [`LocalGraph`].
//!
//! This is the computation each reducer performs in the paper's map-reduce
//! algorithms (Section 4), and — run over the whole data graph — a serial
//! reference algorithm. The edge relation `E(X, Y)` holds each undirected edge
//! exactly once, oriented so that `X` precedes `Y` under the [`NodeOrder`] the
//! local graph was built with; arithmetic comparisons refer to the same order.
//!
//! A query is compiled once into a [`JoinPlan`]: an order in which to bind the
//! variables and, per variable, the adjacency runs of already-bound variables
//! to intersect (a subgoal `E(X, Y)` with `X` bound reads the successors of
//! `X`'s node, with `Y` bound the predecessors of `Y`'s node), the bound
//! variables whose node must precede or follow this one (the transitive
//! closure of the subgoal orientations and the `<` comparisons), and the
//! bound variables it must merely differ from. Local ids are ranks in the
//! node order, so every one of those conditions is an integer compare, and an
//! ordering condition cuts a sorted run with a binary search instead of
//! testing its members one by one.
//!
//! [`JoinPlan::compile_unoriented`] compiles a whole sample graph instead of
//! one of its Theorem 3.1 queries: the edges carry no orientation, the `<`
//! comparisons are the group's symmetry-breaking set, and an edge reads the
//! successors or predecessors of its bound end where the comparisons order
//! its two variables and the bound end's whole neighbourhood where they do
//! not. One such plan finds what the `p!/|Aut|` per-query plans find
//! together, walking the local graph once.
//!
//! [`JoinPlan::run`] is generic over two closures: `admit` is asked before a
//! variable binds to a node (reducers push their bucket tests into the join
//! this way), `found` receives each satisfying assignment. The inner loop
//! performs no dynamic dispatch and no allocation. [`evaluate_cq`] and its
//! siblings are thin collecting wrappers over the same kernel.
//!
//! Assignments are injective (an instance of the sample graph uses `p`
//! distinct data nodes), and variables range over the nodes incident to at
//! least one edge.

use crate::local::LocalGraph;
use crate::query::{ConjunctiveQuery, Constraint, CqGroup, Var};
use subgraph_graph::{DataGraph, NodeId, NodeOrder};
use subgraph_pattern::Instance;

/// The result of evaluating one or more CQs.
#[derive(Clone, Debug, Default)]
pub struct EvalOutcome {
    /// One entry per satisfying assignment, converted to a canonical instance.
    /// If the CQ collection is correct, this list contains no duplicates.
    pub instances: Vec<Instance>,
    /// Number of satisfying assignments found (equals `instances.len()`).
    pub assignments: usize,
}

impl EvalOutcome {
    /// Merges another outcome into this one.
    pub fn absorb(&mut self, other: EvalOutcome) {
        self.assignments += other.assignments;
        self.instances.extend(other.instances);
    }

    /// Number of *distinct* instances found.
    pub fn distinct_instances(&self) -> usize {
        let mut sorted = self.instances.clone();
        sorted.sort_unstable();
        sorted.dedup();
        sorted.len()
    }

    /// Number of duplicate discoveries (0 means the exactly-once invariant held).
    pub fn duplicates(&self) -> usize {
        self.assignments - self.distinct_instances()
    }

    fn push(&mut self, instance: Instance) {
        self.instances.push(instance);
        self.assignments += 1;
    }
}

/// Evaluates a single CQ over `graph` with the given node order.
pub fn evaluate_cq<O: NodeOrder>(
    cq: &ConjunctiveQuery,
    graph: &DataGraph,
    order: &O,
) -> EvalOutcome {
    evaluate_cqs(std::slice::from_ref(cq), graph, order)
}

/// Evaluates a single CQ, additionally restricting the data nodes each
/// variable may bind to. This is what a reducer in variable-oriented
/// processing (Section 4.3) does: variable `X` may only bind to nodes whose
/// `X`-hash equals the reducer's bucket for `X`, which is exactly how each
/// solution ends up discovered by a single reducer.
pub fn evaluate_cq_filtered<O: NodeOrder>(
    cq: &ConjunctiveQuery,
    graph: &DataGraph,
    order: &O,
    candidate_filter: &dyn Fn(Var, NodeId) -> bool,
) -> EvalOutcome {
    let local = LocalGraph::build(graph.edges(), order);
    let plan = JoinPlan::compile(cq);
    let mut outcome = EvalOutcome::default();
    plan.run(
        &local,
        |var, node, _| candidate_filter(var, local.global(node)),
        |assignment| outcome.push(plan.instance(&local, assignment)),
    );
    outcome
}

/// Evaluates a merged orientation group (Section 3.3): the relational part is
/// matched once and an assignment is accepted if it satisfies the OR of the
/// member conditions.
pub fn evaluate_cq_group<O: NodeOrder>(
    group: &CqGroup,
    graph: &DataGraph,
    order: &O,
) -> EvalOutcome {
    let local = LocalGraph::build(graph.edges(), order);
    let plan = JoinPlan::compile_parts(group.num_vars(), &group.subgoals, &[], true);
    let mut outcome = EvalOutcome::default();
    plan.run(
        &local,
        |_, _, _| true,
        |assignment| {
            // Local ids are ranks in the order: exactly what the conditions compare.
            if group.constraints_hold(&|v| u64::from(assignment[v as usize])) {
                outcome.push(plan.instance(&local, assignment));
            }
        },
    );
    outcome
}

/// Evaluates a whole CQ collection and concatenates the results. For a correct
/// collection (Theorem 3.1, Theorem 5.1) the combined outcome has no
/// duplicates and covers every instance of the sample graph.
pub fn evaluate_cqs<O: NodeOrder>(
    cqs: &[ConjunctiveQuery],
    graph: &DataGraph,
    order: &O,
) -> EvalOutcome {
    let local = LocalGraph::build(graph.edges(), order);
    let mut outcome = EvalOutcome::default();
    for plan in cqs.iter().map(JoinPlan::compile) {
        plan.run(
            &local,
            |_, _, _| true,
            |assignment| outcome.push(plan.instance(&local, assignment)),
        );
    }
    outcome
}

/// Which adjacency run of a bound variable's node holds the candidates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Run {
    /// Subgoal `E(bound, this)`: candidates follow the bound node.
    Successors,
    /// Subgoal `E(this, bound)`: candidates precede the bound node.
    Predecessors,
    /// An edge no condition orients: candidates are any neighbour.
    Neighbors,
}

/// How one variable is bound. Other variables are referred to by their
/// *depth* (position in the binding order), which is how the search stores
/// the partial assignment.
#[derive(Clone, Debug)]
struct Step {
    var: Var,
    /// Runs whose intersection holds the candidates; empty when no neighbour
    /// of the variable is bound yet (then every node is a candidate).
    anchors: Vec<(usize, Run)>,
    /// Bound variables whose node must precede this one's, beyond what the
    /// anchors already guarantee.
    after: Vec<usize>,
    /// Bound variables whose node must follow this one's.
    before: Vec<usize>,
    /// Bound variables no ordering condition relates to this one: the only
    /// ones injectivity has to be checked against.
    distinct_from: Vec<usize>,
    /// Where this step's run cursors live in the search's cursor table.
    cursors: usize,
}

/// A conjunctive query compiled for evaluation over a [`LocalGraph`]: see the
/// module docs. Compile once per round, run once per reducer.
#[derive(Clone, Debug)]
pub struct JoinPlan {
    /// The query's relational subgoals, i.e. the sample graph's edges.
    subgoals: Vec<(Var, Var)>,
    steps: Vec<Step>,
    /// False when the ordering conditions contradict each other (`X < Y` and
    /// `Y < X`): no assignment can satisfy the query.
    satisfiable: bool,
    num_cursors: usize,
}

impl JoinPlan {
    /// Compiles `cq`: its subgoals and its `<` comparisons (`≠` comparisons
    /// are implied by injectivity).
    pub fn compile(cq: &ConjunctiveQuery) -> JoinPlan {
        let lts: Vec<(Var, Var)> = cq
            .constraints()
            .iter()
            .filter_map(|c| match *c {
                Constraint::Lt(a, b) => Some((a, b)),
                Constraint::Neq(..) => None,
            })
            .collect();
        Self::compile_parts(cq.num_vars(), cq.subgoals(), &lts, true)
    }

    /// Compiles the match of a whole sample graph: `edges` in either
    /// orientation, and the comparisons `lts` (`(a, b)` reads `a < b`) that
    /// keep one assignment per automorphism orbit — see
    /// `AutomorphismGroup::symmetry_breaking` in `subgraph_pattern`. With no
    /// comparisons the plan finds every injective assignment.
    pub fn compile_unoriented(
        num_vars: usize,
        edges: &[(Var, Var)],
        lts: &[(Var, Var)],
    ) -> JoinPlan {
        Self::compile_parts(num_vars, edges, lts, false)
    }

    /// `oriented`: a subgoal `(a, b)` also says that `a` precedes `b`.
    fn compile_parts(
        num_vars: usize,
        subgoals: &[(Var, Var)],
        lts: &[(Var, Var)],
        oriented: bool,
    ) -> JoinPlan {
        // precedes[a][b]: every satisfying assignment puts a's node before b's.
        let mut precedes = vec![vec![false; num_vars]; num_vars];
        let orientations = if oriented { subgoals } else { &[] };
        for &(a, b) in orientations.iter().chain(lts) {
            precedes[a as usize][b as usize] = true;
        }
        for k in 0..num_vars {
            for i in 0..num_vars {
                for j in 0..num_vars {
                    if precedes[i][k] && precedes[k][j] {
                        precedes[i][j] = true;
                    }
                }
            }
        }
        let satisfiable = (0..num_vars).all(|v| !precedes[v][v]);

        let mut adjacency = vec![Vec::new(); num_vars];
        for &(a, b) in subgoals {
            adjacency[a as usize].push(b);
            adjacency[b as usize].push(a);
        }
        // A query's plans keep the order they always had, so what the
        // variable- and CQ-oriented reducers try does not move.
        let order = if oriented {
            plan_variable_order(&adjacency)
        } else {
            plan_constrained_order(&adjacency, &precedes)
        };
        let mut depth_of = vec![usize::MAX; num_vars];
        let mut steps: Vec<Step> = Vec::with_capacity(num_vars);
        let mut num_cursors = 0;
        for (depth, &var) in order.iter().enumerate() {
            let mut anchors: Vec<(usize, Run)> = Vec::new();
            for &(a, b) in subgoals {
                let other = if b == var { a } else { b };
                let earlier = depth_of[other as usize];
                if (a != var && b != var) || earlier == usize::MAX {
                    continue;
                }
                // The conditions orient the edge, or leave it open.
                let run = if precedes[other as usize][var as usize] {
                    Run::Successors
                } else if precedes[var as usize][other as usize] {
                    Run::Predecessors
                } else {
                    Run::Neighbors
                };
                if !anchors.contains(&(earlier, run)) {
                    anchors.push((earlier, run));
                }
            }
            let mut step = Step {
                var,
                anchors,
                after: Vec::new(),
                before: Vec::new(),
                distinct_from: Vec::new(),
                cursors: num_cursors,
            };
            for (earlier, &other) in order[..depth].iter().enumerate() {
                let (other, this) = (other as usize, var as usize);
                if precedes[other][this] {
                    if !step.anchors.contains(&(earlier, Run::Successors)) {
                        step.after.push(earlier);
                    }
                } else if precedes[this][other] {
                    if !step.anchors.contains(&(earlier, Run::Predecessors)) {
                        step.before.push(earlier);
                    }
                } else {
                    step.distinct_from.push(earlier);
                }
            }
            num_cursors += step.anchors.len();
            depth_of[var as usize] = depth;
            steps.push(step);
        }
        JoinPlan {
            subgoals: subgoals.to_vec(),
            steps,
            satisfiable,
            num_cursors,
        }
    }

    /// The variables in the order the plan binds them.
    pub fn binding_order(&self) -> Vec<Var> {
        self.steps.iter().map(|step| step.var).collect()
    }

    /// The canonical instance behind a satisfying assignment of local ids
    /// (what [`JoinPlan::run`] hands to `found`).
    pub fn instance(&self, graph: &LocalGraph, assignment: &[u32]) -> Instance {
        graph.instance(assignment, &self.subgoals)
    }

    /// Evaluates the query over `graph`.
    ///
    /// `admit(var, node, bound)` is asked before `var` binds to the local id
    /// `node`; `bound` holds the local ids bound so far, in binding order. A
    /// refusal prunes the whole subtree. `found(assignment)` receives every
    /// satisfying assignment, `assignment[var]` being the local id bound to
    /// `var`.
    ///
    /// Returns the number of candidate bindings the join tried — the
    /// kernel's unit of work.
    pub fn run<A, F>(&self, graph: &LocalGraph, admit: A, found: F) -> u64
    where
        A: FnMut(Var, u32, &[u32]) -> bool,
        F: FnMut(&[u32]),
    {
        let p = self.steps.len();
        if p == 0 || !self.satisfiable {
            return 0;
        }
        let mut search = Search {
            steps: &self.steps,
            graph,
            admit,
            found,
            bound: vec![0; p],
            by_var: vec![0; p],
            cursors: vec![&[][..]; self.num_cursors],
            tried: 0,
        };
        search.extend(0);
        search.tried
    }
}

/// Chooses the order in which a query's variables are bound: a connected
/// expansion of the subgoal graph from the highest-degree variable, so that
/// each new variable (after the first) is adjacent to an already-bound one
/// whenever possible, the one with the most bound neighbours first.
fn plan_variable_order(adjacency: &[Vec<Var>]) -> Vec<Var> {
    expand_by(adjacency, |v| adjacency[v].len(), |_, bound, _| bound)
}

/// The binding order of an unoriented plan, where only `precedes` orders
/// variables: every comparison against a bound variable turns a both-ways
/// run into a one-sided one or cuts it by bisection. So the expansion starts
/// at the variable ordered against the most others (then the highest degree)
/// and takes next the variable ordered against the most bound ones, then the
/// one with the most bound neighbours, then the one with the fewest unbound
/// variables ordered between it and a bound one.
fn plan_constrained_order(adjacency: &[Vec<Var>], precedes: &[Vec<bool>]) -> Vec<Var> {
    let vars = 0..adjacency.len();
    let ordered = |a: usize, b: usize| precedes[a][b] || precedes[b][a];
    let between = |v: usize, u: usize, w: usize| {
        (precedes[v][u] && precedes[u][w]) || (precedes[w][u] && precedes[u][v])
    };
    expand_by(
        adjacency,
        |v| {
            let against = vars.clone().filter(|&u| ordered(v, u)).count();
            (against, adjacency[v].len())
        },
        |v, bound, placed| {
            let against = vars.clone().filter(|&w| placed[w] && ordered(v, w)).count();
            let skipped = vars
                .clone()
                .filter(|&u| u != v && !placed[u])
                .filter(|&u| vars.clone().any(|w| placed[w] && between(v, u, w)))
                .count();
            (against, bound, std::cmp::Reverse(skipped))
        },
    )
}

/// A connected expansion of the variables' adjacency: each component starts
/// at its variable with the largest `seed` key and grows by the variable
/// adjacent to a placed one with the largest `next(variable, placed
/// neighbours, placed)` key; ties go to the highest index.
fn expand_by<S: Ord, N: Ord>(
    adjacency: &[Vec<Var>],
    seed: impl Fn(usize) -> S,
    next: impl Fn(usize, usize, &[bool]) -> N,
) -> Vec<Var> {
    let num_vars = adjacency.len();
    let mut plan: Vec<Var> = Vec::with_capacity(num_vars);
    let mut placed = vec![false; num_vars];
    while plan.len() < num_vars {
        let first = (0..num_vars)
            .filter(|&v| !placed[v])
            .max_by_key(|&v| seed(v))
            .expect("there is an unplaced variable");
        placed[first] = true;
        plan.push(first as Var);
        loop {
            let candidate = (0..num_vars)
                .filter(|&v| !placed[v])
                .map(|v| {
                    let bound_neighbors =
                        adjacency[v].iter().filter(|&&u| placed[u as usize]).count();
                    (bound_neighbors, v)
                })
                .filter(|&(bound, _)| bound > 0)
                .max_by_key(|&(bound, v)| (next(v, bound, &placed), v));
            match candidate {
                Some((_, v)) => {
                    placed[v] = true;
                    plan.push(v as Var);
                }
                None => break,
            }
        }
    }
    plan
}

/// The state of one [`JoinPlan::run`]: everything is allocated here, once.
struct Search<'a, A, F> {
    steps: &'a [Step],
    graph: &'a LocalGraph,
    admit: A,
    found: F,
    /// `bound[depth]`: the local id bound at that depth.
    bound: Vec<u32>,
    /// The full assignment indexed by variable, filled at the leaves.
    by_var: Vec<u32>,
    /// The unread tails of the non-base anchor runs, per step.
    cursors: Vec<&'a [u32]>,
    tried: u64,
}

impl<'a, A, F> Search<'a, A, F>
where
    A: FnMut(Var, u32, &[u32]) -> bool,
    F: FnMut(&[u32]),
{
    fn extend(&mut self, depth: usize) {
        let steps = self.steps;
        let Some(step) = steps.get(depth) else {
            for (step, &node) in steps.iter().zip(&self.bound) {
                self.by_var[step.var as usize] = node;
            }
            (self.found)(&self.by_var);
            return;
        };
        // The ordering conditions confine the candidates to `low..high`.
        let mut low = 0u32;
        let mut high = self.graph.num_nodes() as u32;
        for &earlier in &step.after {
            low = low.max(self.bound[earlier] + 1);
        }
        for &later in &step.before {
            high = high.min(self.bound[later]);
        }
        if low >= high {
            return;
        }
        if step.anchors.is_empty() {
            for node in low..high {
                self.tried += 1;
                if self.admits(depth, step, node) {
                    self.bound[depth] = node;
                    self.extend(depth + 1);
                }
            }
            return;
        }
        // Walk the shortest anchor run, cut to the range; the others follow
        // it through cursors that only ever move forward.
        let graph = self.graph;
        let mut base = 0;
        for (i, &(earlier, run)) in step.anchors.iter().enumerate() {
            let run = match run {
                Run::Successors => graph.successors(self.bound[earlier]),
                Run::Predecessors => graph.predecessors(self.bound[earlier]),
                Run::Neighbors => graph.neighbors(self.bound[earlier]),
            };
            self.cursors[step.cursors + i] = run;
            if run.len() < self.cursors[step.cursors + base].len() {
                base = i;
            }
        }
        let run = self.cursors[step.cursors + base];
        let run = &run[run.partition_point(|&x| x < low)..];
        let run = &run[..run.partition_point(|&x| x < high)];
        'candidates: for &node in run {
            self.tried += 1;
            if !self.admits(depth, step, node) {
                continue;
            }
            for i in (0..step.anchors.len()).filter(|&i| i != base) {
                let rest = skip_below(self.cursors[step.cursors + i], node);
                self.cursors[step.cursors + i] = rest;
                match rest.first() {
                    // An exhausted run excludes every later candidate too.
                    None => return,
                    Some(&next) if next != node => continue 'candidates,
                    Some(_) => {}
                }
            }
            self.bound[depth] = node;
            self.extend(depth + 1);
        }
    }

    /// Injectivity against the variables no ordering condition separates from
    /// this one, then the caller's admissibility test.
    #[inline]
    fn admits(&mut self, depth: usize, step: &Step, node: u32) -> bool {
        let bound = &self.bound[..depth];
        step.distinct_from
            .iter()
            .all(|&earlier| bound[earlier] != node)
            && (self.admit)(step.var, node, bound)
    }
}

/// The suffix of the sorted `run` starting at its first element `>= target`:
/// an exponential probe from the front, then a binary search, so advancing a
/// cursor by a short distance is cheap however long the run is.
#[inline]
fn skip_below(run: &[u32], target: u32) -> &[u32] {
    let mut reach = 1;
    while reach < run.len() && run[reach] < target {
        reach *= 2;
    }
    let from = reach / 2;
    let window = &run[from..run.len().min(reach + 1)];
    &run[from + window.partition_point(|&x| x < target)..]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::cqs_for_sample;
    use crate::orientation::merge_by_orientation;
    use subgraph_graph::{generators, IdOrder};
    use subgraph_pattern::catalog;

    fn choose(n: usize, k: usize) -> usize {
        if k > n {
            return 0;
        }
        (0..k).fold(1, |acc, i| acc * (n - i) / (i + 1))
    }

    #[test]
    fn triangle_cq_counts_triangles_in_complete_graph() {
        let g = generators::complete(7);
        let cqs = cqs_for_sample(&catalog::triangle());
        let outcome = evaluate_cqs(&cqs, &g, &IdOrder);
        assert_eq!(outcome.assignments, choose(7, 3));
        assert_eq!(outcome.duplicates(), 0);
    }

    #[test]
    fn triangle_cq_on_triangle_free_graph_finds_nothing() {
        let g = generators::complete_bipartite(4, 5);
        let cqs = cqs_for_sample(&catalog::triangle());
        let outcome = evaluate_cqs(&cqs, &g, &IdOrder);
        assert_eq!(outcome.assignments, 0);
    }

    #[test]
    fn square_cqs_count_squares_in_complete_bipartite_graph() {
        // K_{a,b} contains C(a,2) · C(b,2) squares.
        let g = generators::complete_bipartite(4, 5);
        let cqs = cqs_for_sample(&catalog::square());
        let outcome = evaluate_cqs(&cqs, &g, &IdOrder);
        assert_eq!(outcome.assignments, choose(4, 2) * choose(5, 2));
        assert_eq!(outcome.duplicates(), 0);
    }

    #[test]
    fn square_cqs_count_squares_in_complete_graph() {
        // K_n contains 3 · C(n,4) squares (each 4-subset hosts 3 distinct 4-cycles).
        let g = generators::complete(6);
        let cqs = cqs_for_sample(&catalog::square());
        let outcome = evaluate_cqs(&cqs, &g, &IdOrder);
        assert_eq!(outcome.assignments, 3 * choose(6, 4));
        assert_eq!(outcome.duplicates(), 0);
    }

    #[test]
    fn lollipop_cqs_count_lollipops_in_complete_graph() {
        // Each 4-subset of K_n hosts 4 · 3 = 12 distinct lollipops.
        let g = generators::complete(6);
        let cqs = cqs_for_sample(&catalog::lollipop());
        let outcome = evaluate_cqs(&cqs, &g, &IdOrder);
        assert_eq!(outcome.assignments, 12 * choose(6, 4));
        assert_eq!(outcome.duplicates(), 0);
    }

    #[test]
    fn merged_groups_count_the_same_instances() {
        let g = generators::gnm(30, 120, 3);
        for sample in [catalog::square(), catalog::lollipop(), catalog::cycle(5)] {
            let cqs = cqs_for_sample(&sample);
            let plain = evaluate_cqs(&cqs, &g, &IdOrder);
            let mut merged = EvalOutcome::default();
            for group in merge_by_orientation(&cqs) {
                merged.absorb(evaluate_cq_group(&group, &g, &IdOrder));
            }
            assert_eq!(plain.assignments, merged.assignments);
            assert_eq!(plain.duplicates(), 0);
            assert_eq!(merged.duplicates(), 0);
            let mut a = plain.instances.clone();
            let mut b = merged.instances.clone();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn bucket_order_finds_the_same_instances_as_id_order() {
        use subgraph_graph::BucketThenIdOrder;
        let g = generators::gnm(25, 90, 9);
        let cqs = cqs_for_sample(&catalog::triangle());
        let by_id = evaluate_cqs(&cqs, &g, &IdOrder);
        let by_bucket = evaluate_cqs(&cqs, &g, &BucketThenIdOrder::new(4));
        assert_eq!(by_id.assignments, by_bucket.assignments);
        assert_eq!(by_bucket.duplicates(), 0);
    }

    #[test]
    fn disjoint_triangles_are_each_found_once() {
        let g = generators::disjoint_triangles(10);
        let cqs = cqs_for_sample(&catalog::triangle());
        let outcome = evaluate_cqs(&cqs, &g, &IdOrder);
        assert_eq!(outcome.assignments, 10);
        assert_eq!(outcome.duplicates(), 0);
    }

    #[test]
    fn empty_pattern_yields_nothing() {
        let g = generators::complete(4);
        let cq = ConjunctiveQuery::new(0, vec![], vec![]);
        let outcome = evaluate_cq(&cq, &g, &IdOrder);
        assert_eq!(outcome.assignments, 0);
    }

    #[test]
    fn cycle_c6_count_in_complete_graph() {
        // Number of 6-cycles in K_n: C(n,6) · 6!/(2·6) = C(n,6) · 60.
        let g = generators::complete(7);
        let cqs = cqs_for_sample(&catalog::cycle(6));
        let outcome = evaluate_cqs(&cqs, &g, &IdOrder);
        assert_eq!(outcome.assignments, choose(7, 6) * 60);
        assert_eq!(outcome.duplicates(), 0);
    }

    #[test]
    fn disconnected_patterns_bind_unanchored_variables_over_all_nodes() {
        // Pairs of disjoint edges in K4: the three perfect matchings.
        let pattern = subgraph_pattern::SampleGraph::from_edges(4, &[(0, 1), (2, 3)]);
        let outcome = evaluate_cqs(
            &cqs_for_sample(&pattern),
            &generators::complete(4),
            &IdOrder,
        );
        assert_eq!(outcome.assignments, 3);
        assert_eq!(outcome.duplicates(), 0);
    }

    #[test]
    fn contradictory_comparisons_match_nothing() {
        use crate::query::Constraint;
        let cq = ConjunctiveQuery::new(2, vec![(0, 1)], vec![Constraint::Lt(1, 0)]);
        let outcome = evaluate_cq(&cq, &generators::complete(5), &IdOrder);
        assert_eq!(outcome.assignments, 0);
    }

    #[test]
    fn comparisons_between_non_adjacent_variables_prune_and_filter() {
        use crate::query::Constraint;
        // 2-paths X–W–Y whose ends no subgoal relates: the comparison X < Y
        // cuts W's successor run, X ≠ Y is left to injectivity.
        let paths = |constraints| ConjunctiveQuery::new(3, vec![(0, 1), (0, 2)], constraints);
        let g = generators::complete(6);
        let ordered = evaluate_cq(&paths(vec![Constraint::Lt(1, 2)]), &g, &IdOrder);
        let distinct = evaluate_cq(&paths(vec![Constraint::Neq(1, 2)]), &g, &IdOrder);
        // E(W, X) & E(W, Y) force W below both ends: node w has C(5 − w, 2) pairs.
        assert_eq!(ordered.assignments, choose(6, 3));
        assert_eq!(distinct.assignments, 2 * choose(6, 3));
    }

    fn unoriented_plan(sample: &subgraph_pattern::SampleGraph) -> JoinPlan {
        let lts = subgraph_pattern::automorphism_group(sample).symmetry_breaking();
        JoinPlan::compile_unoriented(sample.num_nodes(), sample.edges(), &lts)
    }

    #[test]
    fn the_unoriented_triangle_is_the_triangle_query() {
        // X0 < X1 < X2 orients every edge: the same steps, in the same
        // order, over successors and predecessors only.
        let triangle = catalog::triangle();
        let cqs = cqs_for_sample(&triangle);
        assert_eq!(cqs.len(), 1);
        let (one, per_cq) = (unoriented_plan(&triangle), JoinPlan::compile(&cqs[0]));
        assert_eq!(one.binding_order(), [2, 1, 0]);
        assert_eq!(format!("{:?}", one.steps), format!("{:?}", per_cq.steps));
    }

    #[test]
    fn comparisons_choose_the_binding_order_and_the_runs() {
        // Square: X0 < X1, X0 < X2, X0 < X3, X1 < X3.
        let square = unoriented_plan(&catalog::square());
        assert_eq!(square.binding_order(), [0, 1, 3, 2]);
        let runs = |plan: &JoinPlan, depth: usize| -> Vec<Run> {
            plan.steps[depth].anchors.iter().map(|a| a.1).collect()
        };
        assert_eq!(runs(&square, 1), [Run::Successors]);
        assert_eq!(runs(&square, 2), [Run::Successors]);
        assert_eq!(square.steps[2].after, [1]);
        // X2 is ordered against neither of its neighbours X1 and X3.
        assert_eq!(runs(&square, 3), [Run::Neighbors, Run::Neighbors]);
        assert_eq!(square.steps[3].after, [0]);
        assert_eq!(square.steps[3].distinct_from, [1, 2]);
        // No symmetry, no comparison: every edge is read both ways.
        let path = JoinPlan::compile_unoriented(3, &[(0, 1), (1, 2)], &[]);
        assert_eq!(runs(&path, 1), [Run::Neighbors]);
        assert_eq!(runs(&path, 2), [Run::Neighbors]);
    }

    #[test]
    fn one_unoriented_plan_finds_what_the_queries_find_together() {
        let g = generators::gnm(30, 120, 3);
        let local = LocalGraph::build(g.edges(), &IdOrder);
        for sample in [
            catalog::triangle(),
            catalog::square(),
            catalog::lollipop(),
            catalog::cycle(5),
            catalog::star(4),
            subgraph_pattern::SampleGraph::from_edges(4, &[(0, 1), (2, 3)]),
        ] {
            let plan = unoriented_plan(&sample);
            let mut found = Vec::new();
            plan.run(
                &local,
                |_, _, _| true,
                |assignment| found.push(plan.instance(&local, assignment)),
            );
            let mut expected = evaluate_cqs(&cqs_for_sample(&sample), &g, &IdOrder).instances;
            found.sort_unstable();
            expected.sort_unstable();
            assert_eq!(found, expected, "{sample:?}");
        }
    }

    #[test]
    fn skip_below_lands_on_the_first_element_not_below_the_target() {
        let run: Vec<u32> = (0..200).map(|x| 3 * x).collect();
        for target in [0, 1, 3, 4, 299, 300, 301, 596, 597, 598, 10_000] {
            let expected = run.partition_point(|&x| x < target);
            assert_eq!(skip_below(&run, target), &run[expected..], "{target}");
        }
        assert!(skip_below(&[], 7).is_empty());
    }
}
