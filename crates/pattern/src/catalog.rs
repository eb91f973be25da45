//! Named sample graphs used throughout the paper.
//!
//! Every pattern the paper analyses is available by name through
//! [`by_name`] — fixed figures (`triangle`, `square`, `lollipop`,
//! `pentagon-with-chord`, `bowtie-bridge`) and parameterized families
//! (`c5`/`cycle5`, `k4`/`clique4`, `star5`, `path4`, `hypercube3`). This is
//! the vocabulary of [`EnumerationRequest::named`] in `subgraph-core` and of
//! the `subgraph` CLI's `--pattern` flag; `subgraph catalog` renders the
//! [`entries`] table.
//!
//! ```
//! use subgraph_pattern::catalog;
//!
//! let lollipop = catalog::by_name("lollipop").unwrap();
//! assert_eq!(lollipop.num_nodes(), 4);
//! assert_eq!(lollipop.num_edges(), 4);
//!
//! // The same patterns, with their metadata, as a browsable table:
//! let entries = catalog::entries();
//! let triangle = entries.iter().find(|e| e.name == "triangle").unwrap();
//! assert_eq!(triangle.automorphisms(), 6); // |Aut(K3)| = 3!
//! ```
//!
//! [`EnumerationRequest::named`]: https://docs.rs/subgraph-core

use crate::automorphism::automorphism_group;
use crate::sample::{PatternNode, SampleGraph};

/// The triangle `K_3` (Section 2).
pub fn triangle() -> SampleGraph {
    SampleGraph::from_edges(3, &[(0, 1), (1, 2), (0, 2)])
}

/// The square `C_4` with the node naming of Figure 3:
/// `0 = W, 1 = X, 2 = Y, 3 = Z`, edges W–X, X–Y, Y–Z, W–Z.
pub fn square() -> SampleGraph {
    SampleGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)])
}

/// The "lollipop" of Figure 4: a triangle `X, Y, Z` with a pendant node `W`
/// attached to `X`. Node naming: `0 = W, 1 = X, 2 = Y, 3 = Z`.
pub fn lollipop() -> SampleGraph {
    SampleGraph::from_edges(4, &[(0, 1), (1, 2), (1, 3), (2, 3)])
}

/// The cycle `C_p` with nodes `0..p` in cyclic order (Figure 8). Requires `p ≥ 3`.
pub fn cycle(p: usize) -> SampleGraph {
    assert!(p >= 3, "cycles need at least 3 nodes");
    let mut s = SampleGraph::empty(p);
    for v in 0..p {
        s.add_edge(v as PatternNode, ((v + 1) % p) as PatternNode);
    }
    s
}

/// The complete graph `K_p`.
pub fn clique(p: usize) -> SampleGraph {
    let mut s = SampleGraph::empty(p);
    for u in 0..p {
        for v in (u + 1)..p {
            s.add_edge(u as PatternNode, v as PatternNode);
        }
    }
    s
}

/// The path with `p` nodes and `p − 1` edges.
pub fn path(p: usize) -> SampleGraph {
    let mut s = SampleGraph::empty(p);
    for v in 1..p {
        s.add_edge((v - 1) as PatternNode, v as PatternNode);
    }
    s
}

/// The star with centre `0` and `p − 1` leaves (the Θ(mΔ^{p−2}) example of §7.3).
pub fn star(p: usize) -> SampleGraph {
    assert!(p >= 2);
    let mut s = SampleGraph::empty(p);
    for v in 1..p {
        s.add_edge(0, v as PatternNode);
    }
    s
}

/// The hypercube `Q_d` on `2^d` nodes (a regular sample graph mentioned after
/// Theorem 4.1). Requires `2^d ≤ 16`.
pub fn hypercube(d: usize) -> SampleGraph {
    let p = 1usize << d;
    let mut s = SampleGraph::empty(p);
    for u in 0..p {
        for bit in 0..d {
            let v = u ^ (1 << bit);
            if v > u {
                s.add_edge(u as PatternNode, v as PatternNode);
            }
        }
    }
    s
}

/// `C_5` with one chord: an example of a graph containing an odd Hamilton
/// cycle "plus additional edges" (Theorem 7.1).
pub fn pentagon_with_chord() -> SampleGraph {
    let mut s = cycle(5);
    s.add_edge(0, 2);
    s
}

/// Two triangles sharing no node, joined by a single bridge edge — an example
/// of a decomposable sample graph for Theorem 7.2.
pub fn bowtie_bridge() -> SampleGraph {
    SampleGraph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
}

/// The 4-clique `K_4` (used in decomposition and share examples).
pub fn k4() -> SampleGraph {
    clique(4)
}

/// One browsable catalog pattern: the name [`by_name`] resolves, the sample
/// graph itself and a one-line description with its paper pointer.
#[derive(Clone, Debug)]
pub struct CatalogEntry {
    /// The name [`by_name`] resolves (for families, a representative member —
    /// `c5` stands for every `cN`).
    pub name: &'static str,
    /// Where the pattern appears in the paper, in one line.
    pub description: &'static str,
    /// The sample graph.
    pub sample: SampleGraph,
}

impl CatalogEntry {
    /// Size of the automorphism group `|Aut(S)|`, read off the stabilizer
    /// chain of [`automorphism_group`] (no permutation is enumerated, so
    /// this is microseconds at any pattern size). The number of conjunctive
    /// queries Theorem 3.1 assigns the pattern is `p! / |Aut(S)|`.
    pub fn automorphisms(&self) -> usize {
        automorphism_group(&self.sample).len()
    }

    /// The Theorem 3.1 conjunctive-query count `p! / |Aut(S)|`, from the
    /// same chain.
    pub fn order_classes(&self) -> usize {
        usize::try_from(automorphism_group(&self.sample).order_classes())
            .expect("at most 16! order classes fit a usize")
    }
}

/// The browsable pattern catalog: every fixed pattern plus one representative
/// member of each parameterized family, with names [`by_name`] resolves.
/// This is the list the `subgraph catalog` CLI subcommand prints and the
/// pattern sweep the CLI parity checks run over.
pub fn entries() -> Vec<CatalogEntry> {
    vec![
        CatalogEntry {
            name: "triangle",
            description: "K3, the running example of Sections 1-2",
            sample: triangle(),
        },
        CatalogEntry {
            name: "square",
            description: "C4 with the node naming of Figure 3",
            sample: square(),
        },
        CatalogEntry {
            name: "lollipop",
            description: "triangle with a pendant node (Figure 4)",
            sample: lollipop(),
        },
        CatalogEntry {
            name: "pentagon-with-chord",
            description: "C5 plus a chord: odd Hamilton cycle plus edges (Theorem 7.1)",
            sample: pentagon_with_chord(),
        },
        CatalogEntry {
            name: "bowtie-bridge",
            description: "two triangles joined by a bridge, decomposable (Theorem 7.2)",
            sample: bowtie_bridge(),
        },
        CatalogEntry {
            name: "c5",
            description: "the cycle family cN / cycleN (Figure 8), shown at N = 5",
            sample: cycle(5),
        },
        CatalogEntry {
            name: "k4",
            description: "the clique family kN / cliqueN, shown at N = 4",
            sample: clique(4),
        },
        CatalogEntry {
            name: "star5",
            description: "the star family starN (the Θ(mΔ^{p-2}) example of §7.3), N = 5",
            sample: star(5),
        },
        CatalogEntry {
            name: "path4",
            description: "the path family pathN, shown at N = 4",
            sample: path(4),
        },
        CatalogEntry {
            name: "hypercube3",
            description: "the hypercube family hypercubeD (regular, Theorem 4.1), D = 3",
            sample: hypercube(3),
        },
    ]
}

/// Looks a catalog pattern up by name, the form the planner's request builder
/// accepts. Fixed names: `triangle`, `square`, `lollipop`,
/// `pentagon-with-chord`, `bowtie-bridge`. Parameterized families: `cN` or
/// `cycleN` (cycle), `kN` or `cliqueN` (clique), `starN`, `pathN`,
/// `hypercubeD` — e.g. `c5`, `k4`, `star6`.
pub fn by_name(name: &str) -> Option<SampleGraph> {
    let fixed = match name {
        "triangle" => Some(triangle()),
        "square" => Some(square()),
        "lollipop" => Some(lollipop()),
        "pentagon-with-chord" => Some(pentagon_with_chord()),
        "bowtie-bridge" => Some(bowtie_bridge()),
        _ => None,
    };
    if fixed.is_some() {
        return fixed;
    }
    type Family = (&'static str, fn(usize) -> SampleGraph, usize);
    let parameterized: &[Family] = &[
        ("cycle", cycle, 3),
        ("c", cycle, 3),
        ("clique", clique, 2),
        ("k", clique, 2),
        ("star", star, 2),
        ("path", path, 2),
        ("hypercube", hypercube, 1),
    ];
    for &(prefix, build, min) in parameterized {
        if let Some(rest) = name.strip_prefix(prefix) {
            if let Ok(p) = rest.parse::<usize>() {
                // Every family parameter is bounded by the pattern-node limit
                // (a hypercube dimension even more tightly), so reject huge
                // parameters before computing 2^p — `1 << p` would overflow.
                if p > crate::sample::MAX_PATTERN_NODES {
                    continue;
                }
                let nodes = if prefix == "hypercube" {
                    1usize << p
                } else {
                    p
                };
                if p >= min && nodes <= crate::sample::MAX_PATTERN_NODES {
                    return Some(build(p));
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_sizes() {
        assert_eq!(triangle().num_edges(), 3);
        assert_eq!(square().num_edges(), 4);
        assert_eq!(lollipop().num_edges(), 4);
        assert_eq!(cycle(6).num_edges(), 6);
        assert_eq!(clique(5).num_edges(), 10);
        assert_eq!(path(5).num_edges(), 4);
        assert_eq!(star(6).num_edges(), 5);
        assert_eq!(hypercube(3).num_edges(), 12);
        assert_eq!(pentagon_with_chord().num_edges(), 6);
        assert_eq!(bowtie_bridge().num_edges(), 7);
    }

    #[test]
    fn regular_members_are_regular() {
        assert!(triangle().is_regular());
        assert!(square().is_regular());
        assert!(cycle(7).is_regular());
        assert!(clique(4).is_regular());
        assert!(hypercube(2).is_regular());
        assert!(!lollipop().is_regular());
        assert!(!star(4).is_regular());
    }

    #[test]
    fn lollipop_structure_matches_figure_4() {
        let l = lollipop();
        // W(0) only touches X(1); X touches everything; Y(2) and Z(3) touch X and each other.
        assert_eq!(l.degree(0), 1);
        assert_eq!(l.degree(1), 3);
        assert_eq!(l.degree(2), 2);
        assert_eq!(l.degree(3), 2);
        assert!(l.has_edge(2, 3));
        assert!(!l.has_edge(0, 2));
    }

    #[test]
    fn cycles_have_hamilton_cycles() {
        for p in 3..8 {
            assert!(cycle(p).find_hamilton_cycle().is_some());
        }
        assert!(path(5).find_hamilton_cycle().is_none());
    }

    #[test]
    fn by_name_resolves_fixed_and_parameterized_patterns() {
        assert_eq!(by_name("triangle"), Some(triangle()));
        assert_eq!(by_name("lollipop"), Some(lollipop()));
        assert_eq!(by_name("c5"), Some(cycle(5)));
        assert_eq!(by_name("cycle6"), Some(cycle(6)));
        assert_eq!(by_name("k4"), Some(clique(4)));
        assert_eq!(by_name("star5"), Some(star(5)));
        assert_eq!(by_name("path4"), Some(path(4)));
        assert_eq!(by_name("hypercube3"), Some(hypercube(3)));
        assert_eq!(by_name("c2"), None); // below the family minimum
        assert_eq!(by_name("hypercube9"), None); // exceeds MAX_PATTERN_NODES
        assert_eq!(by_name("hypercube64"), None); // must not overflow the shift
        assert_eq!(by_name("hypercube9999"), None);
        assert_eq!(by_name("nonsense"), None);
    }

    #[test]
    fn every_entry_name_resolves_to_its_own_sample() {
        let entries = entries();
        assert!(entries.len() >= 10);
        for entry in &entries {
            let resolved = by_name(entry.name)
                .unwrap_or_else(|| panic!("entry {:?} must resolve via by_name", entry.name));
            assert_eq!(resolved, entry.sample, "entry {:?}", entry.name);
            assert!(!entry.description.is_empty());
        }
    }

    #[test]
    fn entry_automorphism_counts_match_the_paper() {
        let find = |name: &str| {
            entries()
                .into_iter()
                .find(|e| e.name == name)
                .unwrap_or_else(|| panic!("no entry {name}"))
        };
        assert_eq!(find("triangle").automorphisms(), 6); // 3!
        assert_eq!(find("square").automorphisms(), 8); // dihedral D4
        assert_eq!(find("lollipop").automorphisms(), 2); // swap Y, Z
        assert_eq!(find("lollipop").order_classes(), 12); // Figure 5's 12 CQs
        assert_eq!(find("k4").automorphisms(), 24); // 4!
        assert_eq!(find("c5").automorphisms(), 10); // dihedral D5
        assert_eq!(find("star5").automorphisms(), 24); // leaves permute: 4!
        assert_eq!(find("hypercube3").automorphisms(), 48);
    }

    #[test]
    fn hypercube_is_bipartite_regular() {
        let q3 = hypercube(3);
        assert_eq!(q3.num_nodes(), 8);
        for v in q3.nodes() {
            assert_eq!(q3.degree(v), 3);
        }
    }
}
