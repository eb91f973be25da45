//! Automorphism groups of sample graphs and the coset representatives of
//! `S_p / Aut(S)` used by Theorem 3.1.
//!
//! An *automorphism* is a bijection on the nodes of `S` that preserves
//! adjacency. The paper (Theorem 3.1) shows that one conjunctive query per
//! member of the quotient of the symmetric group `S_p` by `Aut(S)` suffices to
//! discover every instance of `S` exactly once. The theorem needs two things
//! from the group — its order (`p!/|Aut|` queries) and "is this prefix the
//! lexicographically least of its orbit" — and neither needs the elements.
//!
//! [`AutomorphismGroup`] therefore never lists them. It is found by
//! backtracking over the *graph* (send a base node to a candidate of equal
//! degree, extend node by node under adjacency checks), not over `S_p`, and
//! kept as a stabilizer chain in Sims' sense: with the nodes `0, 1, …` as the
//! base, level `b` is the subgroup fixing every node below `b`; one generator
//! is kept per new point of `b`'s orbit under that subgroup, and because the
//! deepest level is searched first, the generators already found merge orbits
//! so shallower levels search less. The order is the product of the chain's
//! orbit lengths (orbit–stabilizer).
//!
//! [`AutomorphismGroup::stabilizer`] runs the same search with one more node
//! pinned. That is how the canonical-prefix tree of [`order_representatives`]
//! (and of `subgraph_cq::representative_subgoals`) follows a chain whose base
//! is the prefix being grown: a prefix `p₁…p_d` is the least of its
//! orbit iff each `p_i` is the minimum of its orbit under the pointwise
//! stabilizer of `p₁…p_{i−1}`, so a tree node consults one orbit partition,
//! and nothing at all once the stabilizer is trivial. `star16`
//! (|Aut| = 15!) costs a few dozen searches of at most `p²` adjacency checks.

use crate::sample::{PatternNode, SampleGraph};
use std::borrow::Cow;

/// A permutation of the pattern nodes, stored as `perm[old] = new`.
pub type Permutation = Vec<PatternNode>;

/// A *node order*: a sequence listing the pattern nodes from smallest to
/// largest. `order[rank] = node`. Every total order of the pattern nodes is
/// one of the `p!` permutations written this way.
pub type NodeOrdering = Vec<PatternNode>;

/// Generates every permutation of `0..p` in lexicographic order.
///
/// `p!` vectors: for the orientation tables of `subgraph_cq` and the test
/// oracles only — nothing on a planning path calls this.
pub fn all_permutations(p: usize) -> Vec<Permutation> {
    let mut result = Vec::new();
    let mut current: Permutation = (0..p as PatternNode).collect();
    loop {
        result.push(current.clone());
        // Next lexicographic permutation (classic algorithm).
        let n = current.len();
        if n < 2 {
            break;
        }
        let mut i = n - 1;
        while i > 0 && current[i - 1] >= current[i] {
            i -= 1;
        }
        if i == 0 {
            break;
        }
        let mut j = n - 1;
        while current[j] <= current[i - 1] {
            j -= 1;
        }
        current.swap(i - 1, j);
        current[i..].reverse();
    }
    result
}

/// `Aut(S)`, or the subgroup of it that fixes a set of nodes pointwise: a
/// strong generating set, the orbit partition and the order — never the
/// elements (see the module docs).
#[derive(Clone, Debug)]
pub struct AutomorphismGroup<'s> {
    sample: &'s SampleGraph,
    /// Bitmask of the nodes every element of this (sub)group fixes.
    fixed: u16,
    generators: Vec<Permutation>,
    /// `orbit_min[v]` is the smallest node of `v`'s orbit.
    orbit_min: Vec<PatternNode>,
    /// `base_orbits[b]`: bitmask of `b`'s orbit under level `b` of the chain,
    /// the subgroup that also fixes every node below `b`.
    base_orbits: Vec<u16>,
    order: u128,
}

/// Computes the automorphism group of `sample` by backtracking over the
/// graph; the cost grows with `p` and the number of generators, not with
/// `p!` or `|Aut|`.
pub fn automorphism_group(sample: &SampleGraph) -> AutomorphismGroup<'_> {
    AutomorphismGroup::fixing(sample, 0, None)
}

impl<'s> AutomorphismGroup<'s> {
    /// The subgroup of `Aut(sample)` fixing the nodes of `fixed` pointwise.
    /// `within` is the orbit partition of a supergroup, if one is known: an
    /// orbit of the subgroup lies inside one of its orbits, so candidates
    /// outside are not searched.
    fn fixing(sample: &'s SampleGraph, fixed: u16, within: Option<&[PatternNode]>) -> Self {
        let p = sample.num_nodes() as PatternNode;
        let mut group = AutomorphismGroup {
            sample,
            fixed,
            generators: Vec::new(),
            orbit_min: (0..p).collect(),
            base_orbits: (0..p).map(|v| 1 << v).collect(),
            order: 1,
        };
        // Level `b` of the chain fixes every node below `b`. Every generator
        // found so far belongs to a deeper level, hence to this one, so
        // `orbit_min` is at all times the orbit partition of the level being
        // searched, and `b` labels its own orbit.
        for b in (0..p).rev().filter(|&b| fixed >> b & 1 == 0) {
            let level = Extensions::fixing(sample, fixed | ((1 << b) - 1), Some(b));
            // Nodes that no element of this level maps `b` to.
            let mut rejected = 0u16;
            for w in b + 1..p {
                let outside = within.is_some_and(|orbit| orbit[w as usize] != orbit[b as usize]);
                if group.orbit_min[w as usize] == b || rejected >> w & 1 == 1 || outside {
                    continue;
                }
                match level.clone().sending(w).next() {
                    Some(generator) => {
                        group.merge_orbits(&generator);
                        group.generators.push(generator);
                    }
                    // Were anything in `w`'s orbit an image of `b`, `w` would be.
                    None => rejected |= group.orbit_mask(w),
                }
            }
            group.base_orbits[b as usize] = group.orbit_mask(b);
            group.order *= u128::from(group.base_orbits[b as usize].count_ones());
        }
        group
    }

    /// Bitmask of `v`'s orbit.
    fn orbit_mask(&self, v: PatternNode) -> u16 {
        let label = self.orbit_min[v as usize];
        (self.orbit_min.iter().enumerate())
            .filter(|&(_, &min)| min == label)
            .fold(0, |mask, (x, _)| mask | 1 << x)
    }

    fn merge_orbits(&mut self, generator: &Permutation) {
        for (v, &w) in generator.iter().enumerate() {
            let (a, b) = (self.orbit_min[v], self.orbit_min[w as usize]);
            let (keep, drop) = (a.min(b), a.max(b));
            for label in self.orbit_min.iter_mut().filter(|label| **label == drop) {
                *label = keep;
            }
        }
    }

    /// The group order, as the product of the stabilizer chain's orbit
    /// lengths. `u128` so that `p!/order()` is exact for any pattern size.
    pub fn order(&self) -> u128 {
        self.order
    }

    /// [`AutomorphismGroup::order`] as a `usize` (at most 16! < 2⁴⁵). A group
    /// is never empty — it holds the identity — so there is no `is_empty`.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        usize::try_from(self.order).expect("the order of a group on at most 16 nodes fits a usize")
    }

    /// `p! / order()`: for `Aut(S)` itself, the number of order classes —
    /// and conjunctive queries — Theorem 3.1 assigns the pattern.
    pub fn order_classes(&self) -> u128 {
        (1..=self.sample.num_nodes() as u128).product::<u128>() / self.order
    }

    /// True when the identity is the only element.
    pub fn is_trivial(&self) -> bool {
        self.generators.is_empty()
    }

    /// A strong generating set relative to the base `0, 1, …` (skipping the
    /// fixed nodes): the generators that fix every node below `b` generate
    /// level `b` of the chain. Empty for the trivial group.
    pub fn generators(&self) -> &[Permutation] {
        &self.generators
    }

    /// True when `v` is the smallest node of its orbit.
    pub fn is_orbit_minimum(&self, v: PatternNode) -> bool {
        self.orbit_min[v as usize] == v
    }

    /// The subgroup that also fixes `v`: one step down a stabilizer chain
    /// whose base the caller chooses. The trivial group is its own
    /// stabilizer, so a chain that has reached it costs nothing further.
    pub fn stabilizer(&self, v: PatternNode) -> Cow<'_, AutomorphismGroup<'s>> {
        if self.is_trivial() {
            return Cow::Borrowed(self);
        }
        let fixed = self.fixed | 1 << v;
        Cow::Owned(AutomorphismGroup::fixing(
            self.sample,
            fixed,
            Some(&self.orbit_min),
        ))
    }

    /// True when `prefix` is the lexicographically smallest member of its
    /// orbit: no element maps it to a strictly smaller prefix of the same
    /// length.
    ///
    /// An image of the prefix compares first on the image of `prefix[0]`, so
    /// the prefix is least iff `prefix[0]` is the minimum of its orbit and,
    /// among the elements that fix it — the only ones that can still tie —
    /// the rest of the prefix is least: one orbit per position, under the
    /// pointwise stabilizer of the positions before it.
    ///
    /// The key structural fact behind the prefix tree of
    /// [`order_representatives`]: every prefix of a canonical full ordering is
    /// itself canonical — if `mu(prefix) < prefix` then `mu(ordering) <
    /// ordering`. Pruning non-canonical prefixes therefore loses no class
    /// representative.
    pub fn is_canonical_prefix(&self, prefix: &[PatternNode]) -> bool {
        let Some((&first, rest)) = prefix.split_first() else {
            return true;
        };
        self.is_orbit_minimum(first) && self.stabilizer(first).is_canonical_prefix(rest)
    }

    /// Fixed-base symmetry breaking (Grochow & Kellis): the pairs `(b, w)`,
    /// read `X_b < X_w`, such that among the `order()` images of an injective
    /// assignment of ordered values to the nodes exactly one satisfies every
    /// pair. Base point `b` contributes one pair per other node `w` of its
    /// orbit under level `b` of the chain.
    ///
    /// Why exactly one: some element moves the node holding the least value
    /// of `0`'s orbit onto `0`, and the elements that keep it there are the
    /// stabilizer of `0`; among those, some element moves the least of `1`'s
    /// orbit onto `1`; and so on down the chain until the stabilizer is
    /// trivial. The values are distinct, so each minimum — each coset — is
    /// determined. The assignments that satisfy the pairs are therefore a
    /// transversal of the `Aut`-orbits, as the lexicographically least
    /// orderings of [`order_representatives`] are; the union of the Theorem
    /// 3.1 conjunctive queries is this one set of comparisons over
    /// *unoriented* edges.
    pub fn symmetry_breaking(&self) -> Vec<(PatternNode, PatternNode)> {
        let p = self.sample.num_nodes() as PatternNode;
        (0..p)
            .flat_map(|b| (b + 1..p).map(move |w| (b, w)))
            .filter(|&(b, w)| self.base_orbits[b as usize] >> w & 1 == 1)
            .collect()
    }

    /// Every element, in lexicographic order of the permutation vectors.
    /// `order()` of them: for tests and tables over small groups, never for
    /// planning.
    pub fn elements(&self) -> impl Iterator<Item = Permutation> + 's {
        Extensions::fixing(self.sample, self.fixed, None)
    }
}

/// Backtracking over the automorphisms that fix a set of nodes: the other
/// nodes are given images one at a time, smallest candidate first, each
/// checked against every node placed before it.
#[derive(Clone)]
struct Extensions<'s> {
    sample: &'s SampleGraph,
    /// The nodes in the order they are placed, the fixed ones first.
    order: Vec<PatternNode>,
    /// `image[i]` is the image of `order[i]`, for the nodes placed so far.
    image: Vec<PatternNode>,
    /// Bitmask of the nodes in `image`.
    used: u16,
    /// Length of the partial map being extended; never backtracked into.
    floor: usize,
    /// First candidate to try for the next node.
    resume: PatternNode,
    done: bool,
}

impl<'s> Extensions<'s> {
    /// The automorphisms that fix every node of `fixed`, visited in
    /// lexicographic order of their permutation vectors when the free nodes
    /// are placed in index order (`first: None`).
    ///
    /// A search that starts from `first` instead places next the node that
    /// the most placed nodes constrain — counting its placed neighbours or
    /// its placed non-neighbours, whichever are fewer, since a graph and its
    /// complement have the same automorphisms — so a map that cannot be
    /// completed fails close to where it started, and isolated or universal
    /// nodes, which any bijection serves, come last instead of being
    /// permuted under every dead end.
    fn fixing(sample: &'s SampleGraph, fixed: u16, first: Option<PatternNode>) -> Self {
        let (mut order, mut free): (Vec<PatternNode>, Vec<PatternNode>) =
            sample.nodes().partition(|&v| fixed >> v & 1 == 1);
        let floor = order.len();
        if let Some(first) = first {
            let everyone = sample.nodes().fold(0u16, |mask, v| mask | 1 << v);
            // The fewer of `among`'s neighbours and non-neighbours of `u`.
            let rarer = |u: PatternNode, among: u16| {
                let neighbours = (sample.adjacency(u) & among).count_ones();
                neighbours.min((among & !(1 << u)).count_ones() - neighbours)
            };
            let mut placed = fixed;
            let mut next = Some(first);
            while let Some(v) = next {
                free.retain(|&u| u != v);
                order.push(v);
                placed |= 1 << v;
                // `max_by_key` keeps the last maximum: scan high to low so
                // ties go to the lowest index.
                next = (free.iter().copied().rev())
                    .max_by_key(|&u| (rarer(u, placed), rarer(u, everyone)));
            }
        }
        order.append(&mut free);
        Extensions {
            sample,
            image: order[..floor].to_vec(),
            order,
            used: fixed,
            floor,
            resume: 0,
            done: false,
        }
    }

    /// Narrows the search to the automorphisms that send the first free node
    /// to `w`.
    fn sending(mut self, w: PatternNode) -> Self {
        self.done = !self.fits(w);
        self.push(w);
        self.floor += 1;
        self
    }

    /// True when the next node can be sent to `w`: `w` is unused, and degree
    /// and adjacency to every node placed so far carry over.
    fn fits(&self, w: PatternNode) -> bool {
        let v = self.order[self.image.len()];
        let (from, to) = (self.sample.adjacency(v), self.sample.adjacency(w));
        self.used >> w & 1 == 0
            && from.count_ones() == to.count_ones()
            && (self.order.iter().zip(&self.image)).all(|(&u, &x)| from >> u & 1 == to >> x & 1)
    }

    fn push(&mut self, w: PatternNode) {
        self.image.push(w);
        self.used |= 1 << w;
        self.resume = 0;
    }

    fn backtrack(&mut self) {
        if self.image.len() <= self.floor {
            self.done = true;
        } else if let Some(w) = self.image.pop() {
            self.used &= !(1 << w);
            self.resume = w + 1;
        }
    }
}

impl Iterator for Extensions<'_> {
    type Item = Permutation;

    fn next(&mut self) -> Option<Permutation> {
        let p = self.sample.num_nodes();
        while !self.done {
            if self.image.len() == p {
                let mut found = vec![0; p];
                for (&v, &x) in self.order.iter().zip(&self.image) {
                    found[v as usize] = x;
                }
                self.backtrack();
                return Some(found);
            }
            match (self.resume..p as PatternNode).find(|&w| self.fits(w)) {
                Some(w) => self.push(w),
                None => self.backtrack(),
            }
        }
        None
    }
}

/// Applies an automorphism `mu` to a node ordering, yielding the ordering in
/// which the node at rank `i` is `mu(order[i])`.
pub fn apply_to_ordering(mu: &Permutation, order: &NodeOrdering) -> NodeOrdering {
    order.iter().map(|&v| mu[v as usize]).collect()
}

/// One node ordering per equivalence class of `S_p / Aut(S)` (Theorem 3.1),
/// chosen as the lexicographically smallest member of each class. The number
/// of representatives is exactly `p! / |Aut(S)|`, and they are returned in
/// lexicographic order.
///
/// Implemented as a depth-first search over canonical prefixes (see
/// [`AutomorphismGroup::is_canonical_prefix`]): a prefix whose orbit contains
/// a smaller prefix cannot extend to any class representative, so whole
/// subtrees are skipped without being enumerated. The search carries the
/// pointwise stabilizer of the prefix down the recursion, so a tree node
/// costs one orbit lookup per child — the prefix tree touches only
/// `O(Σ_d classes(d))` nodes and no group element.
pub fn order_representatives(sample: &SampleGraph) -> Vec<NodeOrdering> {
    let mut reps = Vec::new();
    let mut prefix = Vec::with_capacity(sample.num_nodes());
    descend(&automorphism_group(sample), &mut prefix, &mut reps);
    reps
}

/// `stabilizer` is the pointwise stabilizer of `prefix`.
fn descend(
    stabilizer: &AutomorphismGroup<'_>,
    prefix: &mut NodeOrdering,
    reps: &mut Vec<NodeOrdering>,
) {
    let p = stabilizer.sample.num_nodes();
    if prefix.len() == p {
        reps.push(prefix.clone());
        return;
    }
    for v in 0..p as PatternNode {
        if prefix.contains(&v) || !stabilizer.is_orbit_minimum(v) {
            continue;
        }
        prefix.push(v);
        descend(&stabilizer.stabilizer(v), prefix, reps);
        prefix.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use std::collections::HashSet;
    use subgraph_graph::rng::Rng;

    /// The `p!` filter this module used to be: every permutation, kept if it
    /// preserves adjacency. The oracle for everything below.
    fn brute_force_group(sample: &SampleGraph) -> Vec<Permutation> {
        all_permutations(sample.num_nodes())
            .into_iter()
            .filter(|perm| sample.is_automorphism(perm))
            .collect()
    }

    /// The original canonical-prefix test: scan the whole group for an
    /// element that maps the prefix to a smaller one.
    fn scan_is_canonical_prefix(autos: &[Permutation], prefix: &[PatternNode]) -> bool {
        autos.iter().all(|mu| {
            let image: Vec<PatternNode> = prefix.iter().map(|&v| mu[v as usize]).collect();
            image.as_slice() >= prefix
        })
    }

    /// The original brute force: hash every ordering's full orbit, keep the
    /// first unseen one. Retained as the oracle for the canonical-prefix DFS.
    fn brute_force_representatives(sample: &SampleGraph) -> Vec<NodeOrdering> {
        let autos = brute_force_group(sample);
        let mut seen: HashSet<NodeOrdering> = HashSet::new();
        let mut reps = Vec::new();
        for order in all_permutations(sample.num_nodes()) {
            if seen.contains(&order) {
                continue;
            }
            for mu in &autos {
                seen.insert(apply_to_ordering(mu, &order));
            }
            reps.push(order);
        }
        reps
    }

    /// Random sample graph on 4–8 nodes with an edge density drawn per
    /// sample, so sparse (disconnected, isolated nodes) and dense ones both
    /// occur.
    fn random_sample(seed: u64) -> SampleGraph {
        let mut rng = Rng::seed_from_u64(seed);
        let p = rng.gen_range(4..9);
        let density = [0.15, 0.3, 0.5, 0.7][rng.gen_range(0..4)];
        let mut sample = SampleGraph::empty(p);
        for u in 0..p as PatternNode {
            for v in (u + 1)..p as PatternNode {
                if rng.gen_bool(density) {
                    sample.add_edge(u, v);
                }
            }
        }
        sample
    }

    /// Everything brute force can reach: the catalog, the parameterized
    /// families up to 9 nodes, and 200 seeded random samples.
    fn differential_samples() -> Vec<(String, SampleGraph)> {
        let mut samples: Vec<(String, SampleGraph)> = catalog::entries()
            .into_iter()
            .map(|entry| (entry.name.to_string(), entry.sample))
            .collect();
        samples.extend((3..=9).map(|p| (format!("star{p}"), catalog::star(p))));
        samples.extend((3..=8).map(|p| (format!("k{p}"), catalog::clique(p))));
        samples.extend((3..=9).map(|p| (format!("c{p}"), catalog::cycle(p))));
        samples.extend((2..=8).map(|p| (format!("path{p}"), catalog::path(p))));
        samples.extend((1..=3).map(|d| (format!("hypercube{d}"), catalog::hypercube(d))));
        samples.extend((0..200).map(|seed| (format!("random seed {seed}"), random_sample(seed))));
        samples
    }

    /// The subgroup of `S_p` generated by `generators`, by closure.
    fn generated_group(p: usize, generators: &[Permutation]) -> HashSet<Permutation> {
        let identity: Permutation = (0..p as PatternNode).collect();
        let mut group = HashSet::from([identity.clone()]);
        let mut frontier = vec![identity];
        while let Some(element) = frontier.pop() {
            for g in generators {
                let product = apply_to_ordering(g, &element);
                if group.insert(product.clone()) {
                    frontier.push(product);
                }
            }
        }
        group
    }

    /// Every injective sequence over `0..p`, shortest first within a branch.
    fn all_prefixes(p: usize, prefix: &mut NodeOrdering, visit: &mut impl FnMut(&[PatternNode])) {
        visit(prefix);
        for v in 0..p as PatternNode {
            if !prefix.contains(&v) {
                prefix.push(v);
                all_prefixes(p, prefix, visit);
                prefix.pop();
            }
        }
    }

    #[test]
    fn random_samples_include_disconnected_and_isolated_ones() {
        let samples: Vec<SampleGraph> = (0..200).map(random_sample).collect();
        let isolated = |s: &SampleGraph| s.nodes().any(|v| s.degree(v) == 0);
        assert!(samples.iter().filter(|s| !s.is_connected()).count() >= 20);
        assert!(samples.iter().filter(|s| isolated(s)).count() >= 20);
        assert!(samples.iter().filter(|s| s.is_connected()).count() >= 20);
    }

    #[test]
    fn chain_matches_the_brute_force_group() {
        for (name, sample) in differential_samples() {
            let p = sample.num_nodes();
            let oracle = brute_force_group(&sample);
            let group = automorphism_group(&sample);
            assert_eq!(group.order(), oracle.len() as u128, "{name}");
            assert_eq!(group.len(), oracle.len(), "{name}");
            assert_eq!(group.is_trivial(), oracle.len() == 1, "{name}");
            for g in group.generators() {
                assert!(sample.is_automorphism(g), "{name}: generator {g:?}");
            }
            if p <= 6 {
                let generated = generated_group(p, group.generators());
                assert_eq!(generated.len(), oracle.len(), "{name}");
            }
            if oracle.len() <= 720 {
                // Same elements, in the same (lexicographic) order the
                // filtered `p!` list had.
                assert_eq!(group.elements().collect::<Vec<_>>(), oracle, "{name}");
            }
        }
    }

    #[test]
    fn canonical_prefix_agrees_with_the_group_scan_on_every_prefix() {
        for (name, sample) in differential_samples() {
            let p = sample.num_nodes();
            if p > 6 {
                continue;
            }
            let oracle = brute_force_group(&sample);
            let group = automorphism_group(&sample);
            all_prefixes(p, &mut Vec::new(), &mut |prefix| {
                assert_eq!(
                    group.is_canonical_prefix(prefix),
                    scan_is_canonical_prefix(&oracle, prefix),
                    "{name}: prefix {prefix:?}"
                );
            });
        }
    }

    #[test]
    fn stabilizer_orbits_match_the_elements_that_fix_the_prefix() {
        // Fixing nodes one at a time, in an order that is not the chain's
        // own base, still yields the pointwise stabilizer.
        for sample in [
            catalog::hypercube(3),
            catalog::bowtie_bridge(),
            catalog::star(6),
        ] {
            let oracle = brute_force_group(&sample);
            let mut stabilizer = automorphism_group(&sample);
            let mut prefix = Vec::new();
            for v in [5, 2, 0] {
                stabilizer = stabilizer.stabilizer(v).into_owned();
                prefix.push(v);
                let fixing: Vec<&Permutation> = oracle
                    .iter()
                    .filter(|mu| prefix.iter().all(|&x| mu[x as usize] == x))
                    .collect();
                assert_eq!(stabilizer.order(), fixing.len() as u128);
                let elements: Vec<Permutation> = stabilizer.elements().collect();
                assert_eq!(elements.iter().collect::<Vec<_>>(), fixing);
                for x in sample.nodes() {
                    let least = fixing.iter().map(|mu| mu[x as usize]).min();
                    assert_eq!(stabilizer.is_orbit_minimum(x), least == Some(x));
                }
            }
        }
    }

    /// How many of the `Aut`-images of the assignment `values` (node `v`
    /// holds `values[v]`) satisfy every pair of `lts`.
    fn satisfying_images(
        autos: &[Permutation],
        lts: &[(PatternNode, PatternNode)],
        values: &[PatternNode],
    ) -> usize {
        let image_satisfies = |mu: &Permutation| {
            let at = |v: PatternNode| values[mu[v as usize] as usize];
            lts.iter().all(|&(b, w)| at(b) < at(w))
        };
        autos.iter().filter(|mu| image_satisfies(mu)).count()
    }

    #[test]
    fn symmetry_breaking_keeps_exactly_one_assignment_per_orbit() {
        let mut samples: Vec<(String, SampleGraph)> = catalog::entries()
            .into_iter()
            .map(|entry| (entry.name.to_string(), entry.sample))
            .collect();
        let connected = (0..400u64)
            .map(|seed| (format!("random seed {seed}"), random_sample(seed)))
            .filter(|(_, s)| s.is_connected() && s.num_nodes() <= 7)
            .take(60);
        samples.extend(connected);
        assert!(samples.len() >= 60, "too few connected random samples");
        for (name, sample) in samples {
            let group = automorphism_group(&sample);
            let lts = group.symmetry_breaking();
            let autos: Vec<Permutation> = group.elements().collect();
            let identity = std::slice::from_ref(&autos[0]);
            let mut satisfying = 0u128;
            for values in all_permutations(sample.num_nodes()) {
                // Every orbit of assignments has exactly one member that
                // passes, so the passing ones number p!/|Aut|.
                assert_eq!(satisfying_images(&autos, &lts, &values), 1, "{name}");
                satisfying += satisfying_images(identity, &lts, &values) as u128;
            }
            assert_eq!(satisfying, group.order_classes(), "{name}");
        }
    }

    #[test]
    fn symmetry_breaking_of_the_named_patterns() {
        let lts = |sample: &SampleGraph| automorphism_group(sample).symmetry_breaking();
        assert_eq!(lts(&catalog::triangle()), [(0, 1), (0, 2), (1, 2)]);
        assert_eq!(lts(&catalog::square()), [(0, 1), (0, 2), (0, 3), (1, 3)]);
        // The centre is alone in its orbit; the leaves come out as a chain.
        assert_eq!(
            lts(&catalog::star(5)),
            [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
        );
        assert_eq!(lts(&catalog::lollipop()).len(), 1);
        // The smallest asymmetric tree: arms of length 1, 2 and 3.
        let asymmetric =
            SampleGraph::from_edges(7, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6)]);
        assert!(lts(&asymmetric).is_empty());
        // A stabilizer breaks only the symmetry it has left.
        let square = catalog::square();
        assert_eq!(
            automorphism_group(&square)
                .stabilizer(0)
                .symmetry_breaking(),
            [(1, 3)]
        );
        // 16 nodes, 15! automorphisms: read off the chain, not the elements.
        assert_eq!(lts(&catalog::star(16)).len(), 15 * 14 / 2);
    }

    #[test]
    fn closed_form_orders_where_brute_force_cannot_go() {
        let factorial = |n: u128| (1..=n).product::<u128>();
        // A cherry, an edge and eleven isolated nodes: sending a cherry leaf
        // to an end of the edge is a dead end that a search placing nodes in
        // index order only refutes after permuting the isolated nodes (0.65 s
        // in release). Its complement hides the same trap behind universal
        // nodes.
        let sparse = SampleGraph::from_edges(16, &[(1, 13), (3, 13), (9, 14)]);
        let mut dense = SampleGraph::empty(16);
        for &(u, v) in catalog::clique(16).edges() {
            if !sparse.has_edge(u, v) {
                dense.add_edge(u, v);
            }
        }
        let cases = [
            ("star16", catalog::star(16), factorial(15)),
            ("k16", catalog::clique(16), factorial(16)),
            ("c16", catalog::cycle(16), 32),
            ("path16", catalog::path(16), 2),
            ("hypercube4", catalog::hypercube(4), 384),
            ("cherry + edge + 11 isolated", sparse, 2 * 2 * factorial(11)),
            ("its complement", dense, 2 * 2 * factorial(11)),
        ];
        for (name, sample, order) in cases {
            let started = std::time::Instant::now();
            let group = automorphism_group(&sample);
            let elapsed = started.elapsed();
            assert_eq!(group.order(), order, "{name}");
            assert_eq!(group.order_classes(), factorial(16) / order, "{name}");
            assert!(elapsed.as_millis() < 50, "{name} took {elapsed:?}");
            for g in group.generators() {
                assert!(sample.is_automorphism(g), "{name}: generator {g:?}");
            }
        }
    }

    #[test]
    fn sixteen_node_patterns_walk_the_prefix_tree() {
        // 16!/15! = 16 classes (the centre's rank) and 16!/16! = 1.
        let reps = order_representatives(&catalog::star(16));
        assert_eq!(reps.len(), 16);
        for (rank, rep) in reps.iter().enumerate() {
            assert_eq!(rep.iter().position(|&v| v == 0), Some(rank));
        }
        let identity: NodeOrdering = (0..16).collect();
        assert_eq!(order_representatives(&catalog::clique(16)), vec![identity]);
        // The cube's stabilizer chain: 16 · 4 · 3 · 2 = 384.
        let cube = catalog::hypercube(4);
        let group = automorphism_group(&cube);
        assert!(group.is_canonical_prefix(&[0, 1, 2, 4, 8]));
        assert!(!group.is_canonical_prefix(&[0, 2]));
        assert!(!group.is_canonical_prefix(&[0, 1, 4]));
        let fixing_a_corner_and_its_edges = [0, 1, 2, 4]
            .iter()
            .fold(group.clone(), |g, &v| g.stabilizer(v).into_owned());
        assert!(fixing_a_corner_and_its_edges.is_trivial());
        assert!(!group.stabilizer(0).stabilizer(1).is_trivial());
    }

    #[test]
    fn permutation_enumeration_counts() {
        assert_eq!(all_permutations(0).len(), 1);
        assert_eq!(all_permutations(1).len(), 1);
        assert_eq!(all_permutations(3).len(), 6);
        assert_eq!(all_permutations(5).len(), 120);
    }

    #[test]
    fn permutations_are_lexicographic_and_distinct() {
        let perms = all_permutations(4);
        assert_eq!(perms.len(), 24);
        for w in perms.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn automorphism_group_sizes_match_the_paper() {
        // Square: 8 (Example 3.2). Lollipop: 2 (Section 3.3). Cycle C_p: 2p
        // (Section 5.1). Clique K_p: p!.
        assert_eq!(automorphism_group(&catalog::square()).len(), 8);
        assert_eq!(automorphism_group(&catalog::lollipop()).len(), 2);
        assert_eq!(automorphism_group(&catalog::cycle(5)).len(), 10);
        assert_eq!(automorphism_group(&catalog::cycle(6)).len(), 12);
        assert_eq!(automorphism_group(&catalog::clique(4)).len(), 24);
        assert_eq!(automorphism_group(&catalog::triangle()).len(), 6);
        assert_eq!(automorphism_group(&catalog::path(4)).len(), 2);
        assert_eq!(automorphism_group(&catalog::star(5)).len(), 24);
        // Degenerate sample graphs: the empty graph has the empty map.
        assert_eq!(automorphism_group(&SampleGraph::empty(0)).len(), 1);
        assert_eq!(automorphism_group(&SampleGraph::empty(3)).len(), 6);
    }

    #[test]
    fn group_contains_identity_and_is_closed() {
        let square = catalog::square();
        let autos: Vec<Permutation> = automorphism_group(&square).elements().collect();
        let identity: Permutation = (0..4).collect();
        assert!(autos.contains(&identity));
        // Closure under composition.
        for a in &autos {
            for b in &autos {
                let composed: Permutation = (0..4).map(|i| a[b[i] as usize]).collect();
                assert!(autos.contains(&composed));
            }
        }
    }

    #[test]
    fn representative_counts_match_quotient_size() {
        // Square: 24/8 = 3 (Example 3.2). Lollipop: 24/2 = 12 (Figure 5).
        // Triangle: 6/6 = 1 (Section 2.2: a single CQ with X<Y<Z).
        // Pentagon: 120/10 = 12 (Example 5.3 discussion).
        assert_eq!(order_representatives(&catalog::square()).len(), 3);
        assert_eq!(order_representatives(&catalog::lollipop()).len(), 12);
        assert_eq!(order_representatives(&catalog::triangle()).len(), 1);
        assert_eq!(order_representatives(&catalog::cycle(5)).len(), 12);
    }

    #[test]
    fn representatives_cover_all_orderings_without_overlap() {
        let lollipop = catalog::lollipop();
        let reps = order_representatives(&lollipop);
        let mut covered = HashSet::new();
        for rep in &reps {
            for mu in automorphism_group(&lollipop).elements() {
                let img = apply_to_ordering(&mu, rep);
                assert!(covered.insert(img), "orderings covered twice");
            }
        }
        assert_eq!(covered.len(), 24);
    }

    #[test]
    fn square_representatives_match_example_3_2() {
        // With W=0, X=1, Y=2, Z=3 the lexicographically smallest class
        // representatives are WXYZ, WXZY, WYXZ — the same classes the paper
        // picks (it lists WXYZ, WYXZ, WXZY).
        let reps = order_representatives(&catalog::square());
        assert!(reps.contains(&vec![0, 1, 2, 3]));
        assert!(reps.contains(&vec![0, 1, 3, 2]));
        assert!(reps.contains(&vec![0, 2, 1, 3]));
    }

    #[test]
    fn prefix_dfs_matches_brute_force_on_catalog() {
        // The catalog first, then every other differential sample.
        for (name, sample) in differential_samples() {
            assert_eq!(
                order_representatives(&sample),
                brute_force_representatives(&sample),
                "representative mismatch for {name}"
            );
        }
    }

    #[test]
    fn representatives_are_lexicographic_orbit_minima() {
        let c5 = catalog::cycle(5);
        let group = automorphism_group(&c5);
        let reps = order_representatives(&c5);
        for w in reps.windows(2) {
            assert!(w[0] < w[1], "representatives must come out in lex order");
        }
        for rep in &reps {
            for mu in group.elements() {
                assert!(apply_to_ordering(&mu, rep) >= *rep);
            }
            assert!(group.is_canonical_prefix(rep));
        }
    }

    #[test]
    fn canonical_prefix_identifies_orbits() {
        // In the square (Aut = dihedral group of order 8), prefixes [1] and
        // [3] are both images of [0] under rotations, so only [0] is
        // canonical.
        let square = catalog::square();
        let group = automorphism_group(&square);
        assert!(group.is_canonical_prefix(&[0]));
        assert!(!group.is_canonical_prefix(&[1]));
        assert!(!group.is_canonical_prefix(&[3]));
        // [0,1] (adjacent corners) and [0,2] (opposite corners) sit in
        // different orbits and are both canonical; [0,3] is the mirror image
        // of [0,1] under the reflection that fixes 0.
        assert!(group.is_canonical_prefix(&[0, 1]));
        assert!(group.is_canonical_prefix(&[0, 2]));
        assert!(!group.is_canonical_prefix(&[0, 3]));
        let fixing_w = group.stabilizer(0);
        assert_eq!(fixing_w.order(), 2);
        assert!(fixing_w.is_orbit_minimum(1) && !fixing_w.is_orbit_minimum(3));
    }

    #[test]
    fn apply_to_ordering_relabels_positions() {
        let mu: Permutation = vec![1, 2, 3, 0];
        let order: NodeOrdering = vec![0, 1, 2, 3];
        assert_eq!(apply_to_ordering(&mu, &order), vec![1, 2, 3, 0]);
    }
}
