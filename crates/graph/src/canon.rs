//! Label-aware automorphism groups of directed graphs.
//!
//! [`automorphisms`] computes the node-orbit partition of a labeled digraph
//! (respecting node labels and edge directions; edge weights are ignored)
//! together with a generating set of label-preserving permutations.
//! ContrArc uses it to find the symmetric parts of a problem's template:
//! orbit-pruned certificate matching and the symmetry-breaking MILP rows
//! are built from these orbits — see `contrarc-graph::iso` and the `sym`
//! module of `contrarc-core`.
//!
//! The algorithm is classic individualization–refinement:
//!
//! 1. color nodes by their label bytes;
//! 2. refine with Weisfeiler–Leman sweeps (a node's new color is its old
//!    color plus the multisets of its in- and out-neighbor colors) until the
//!    partition stabilizes;
//! 3. if cells remain with two or more nodes, individualize each member of
//!    the lowest-colored such cell in turn and recurse;
//! 4. every branch ends in a discrete coloring, i.e. a candidate canonical
//!    ordering; two leaves with equal encodings differ by an automorphism.
//!
//! The target-cell choice (lowest non-singleton color) is invariant under
//! relabeling, so the search visits every leaf of an automorphism class. The
//! search is exponential in the worst case but the templates this workload
//! analyses, whose labels separate most nodes, refine to discrete almost
//! immediately.

use crate::digraph::DiGraph;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// The automorphism structure of a labeled digraph: a generating set of
/// label-preserving permutations plus the node-orbit partition they induce.
///
/// Produced by [`automorphisms`] from an exhaustive
/// individualization–refinement search. Two discrete colorings of the *same*
/// graph with equal encodings differ by an automorphism (map each node to the
/// node occupying its canonical position in the other coloring), and the
/// exhaustive search visits every coloring in an automorphism class of
/// leaves, so the union-find closure over the derived permutations yields the
/// exact orbit partition of `Aut(G)`.
///
/// The stored generators may generate a proper subgroup of `Aut(G)` —
/// permutations that merge no new orbit pair are discarded — but the orbit
/// partition of that subgroup is identical to the full group's, which is the
/// invariant orbit-pruned matching relies on (see `contrarc-graph::iso`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Automorphisms {
    n: usize,
    generators: Vec<Vec<usize>>,
    orbit_rep: Vec<usize>,
}

impl Automorphisms {
    /// The trivial (identity-only) group on `n` nodes.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        Automorphisms {
            n,
            generators: Vec::new(),
            orbit_rep: (0..n).collect(),
        }
    }

    /// Number of nodes of the graph this group acts on.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Generating permutations (`g[v]` is the image of node index `v`).
    /// Empty exactly when the group is trivial.
    #[must_use]
    pub fn generators(&self) -> &[Vec<usize>] {
        &self.generators
    }

    /// The minimum node index in `v`'s orbit (the orbit representative).
    #[must_use]
    pub fn orbit_rep(&self, v: usize) -> usize {
        self.orbit_rep[v]
    }

    /// Number of orbits of the partition.
    #[must_use]
    pub fn num_orbits(&self) -> usize {
        self.orbit_rep
            .iter()
            .enumerate()
            .filter(|&(v, &r)| v == r)
            .count()
    }

    /// Whether the group is trivial (every orbit is a singleton).
    #[must_use]
    pub fn is_trivial(&self) -> bool {
        self.generators.is_empty()
    }

    /// All orbits, each sorted ascending, ordered by their representative.
    #[must_use]
    pub fn orbits(&self) -> Vec<Vec<usize>> {
        let mut by_rep: HashMap<usize, Vec<usize>> = HashMap::new();
        for v in 0..self.n {
            by_rep.entry(self.orbit_rep[v]).or_default().push(v);
        }
        let mut out: Vec<Vec<usize>> = by_rep.into_values().collect();
        out.sort();
        out
    }
}

/// Compute the automorphism structure of `graph` under the node labeling
/// `label` (each node's label rendered as bytes; labels take part in the
/// isomorphism, edge weights do not) by an exhaustive
/// individualization–refinement search over discrete colorings.
#[must_use]
pub fn automorphisms<N, E, F>(graph: &DiGraph<N, E>, label: F) -> Automorphisms
where
    F: Fn(&N) -> Vec<u8>,
{
    let n = graph.num_nodes();
    if n == 0 {
        return Automorphisms::identity(0);
    }
    let labels: Vec<Vec<u8>> = graph.nodes().map(|(_, w)| label(w)).collect();
    let mut adj_out: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut adj_in: Vec<Vec<usize>> = vec![Vec::new(); n];
    for e in graph.edges() {
        adj_out[e.src.index()].push(e.dst.index());
        adj_in[e.dst.index()].push(e.src.index());
    }
    let mut uniq: Vec<&Vec<u8>> = labels.iter().collect();
    uniq.sort();
    uniq.dedup();
    let mut colors: Vec<usize> = labels
        .iter()
        .map(|l| uniq.binary_search(&l).expect("label is present"))
        .collect();
    refine(&mut colors, &adj_out, &adj_in);

    let mut collect = AutCollect {
        first: HashMap::new(),
        generators: Vec::new(),
        uf: (0..n).collect(),
    };
    search_aut(&colors, &labels, &adj_out, &adj_in, &mut collect);

    let mut orbit_rep = vec![usize::MAX; n];
    for v in 0..n {
        let r = uf_find(&mut collect.uf, v);
        orbit_rep[r] = orbit_rep[r].min(v);
    }
    let reps = orbit_rep.clone();
    for v in 0..n {
        orbit_rep[v] = reps[uf_find(&mut collect.uf, v)];
    }
    Automorphisms {
        n,
        generators: collect.generators,
        orbit_rep,
    }
}

/// Leaf accumulator for [`automorphisms`]: the first discrete coloring seen
/// per encoding, the union-find over orbit merges, and the generators kept
/// (only permutations that merged at least one new pair — dropping the rest
/// shrinks the generated group without changing its orbits, since a
/// permutation that merges nothing maps every node within its existing
/// orbit).
struct AutCollect {
    first: HashMap<Vec<u8>, Vec<usize>>,
    generators: Vec<Vec<usize>>,
    uf: Vec<usize>,
}

impl AutCollect {
    fn leaf(&mut self, colors: &[usize], labels: &[Vec<u8>], adj_out: &[Vec<usize>]) {
        let n = colors.len();
        let enc = encode(colors, labels, adj_out);
        match self.first.entry(enc) {
            Entry::Vacant(e) => {
                e.insert(colors.to_vec());
            }
            Entry::Occupied(e) => {
                // Equal encodings: node `v` of this coloring plays the same
                // canonical position as node `node_at0[colors[v]]` of the
                // stored one, and that position-matching map is an
                // automorphism (labels and the position-space edge multiset
                // agree byte for byte).
                let c0 = e.get();
                let mut node_at0 = vec![0usize; n];
                for (v, &c) in c0.iter().enumerate() {
                    node_at0[c] = v;
                }
                let perm: Vec<usize> = colors.iter().map(|&c| node_at0[c]).collect();
                let mut novel = false;
                for (v, &pv) in perm.iter().enumerate() {
                    let a = uf_find(&mut self.uf, v);
                    let b = uf_find(&mut self.uf, pv);
                    if a != b {
                        self.uf[a.max(b)] = a.min(b);
                        novel = true;
                    }
                }
                if novel {
                    self.generators.push(perm);
                }
            }
        }
    }
}

fn uf_find(uf: &mut [usize], v: usize) -> usize {
    let mut r = v;
    while uf[r] != r {
        r = uf[r];
    }
    let mut c = v;
    while uf[c] != r {
        let next = uf[c];
        uf[c] = r;
        c = next;
    }
    r
}

/// The individualization–refinement recursion: individualize each member of
/// the lowest non-singleton cell in turn, refine, and hand every discrete
/// leaf to `collect`.
fn search_aut(
    colors: &[usize],
    labels: &[Vec<u8>],
    adj_out: &[Vec<usize>],
    adj_in: &[Vec<usize>],
    collect: &mut AutCollect,
) {
    match first_non_singleton(colors) {
        None => collect.leaf(colors, labels, adj_out),
        Some(cell) => {
            for v in (0..colors.len()).filter(|&v| colors[v] == cell) {
                let mut split = colors.to_vec();
                // A fresh color beyond every rank: the next refine pass
                // renormalizes it while keeping v separated from its cell.
                split[v] = colors.len();
                refine(&mut split, adj_out, adj_in);
                search_aut(&split, labels, adj_out, adj_in, collect);
            }
        }
    }
}

/// Weisfeiler–Leman color refinement: repeatedly re-rank nodes by
/// `(color, sorted out-neighbor colors, sorted in-neighbor colors)` until the
/// partition is stable. Ranking sorts by the old color first, so refinement
/// only ever splits cells.
fn refine(colors: &mut Vec<usize>, adj_out: &[Vec<usize>], adj_in: &[Vec<usize>]) {
    let n = colors.len();
    loop {
        let keys: Vec<(usize, Vec<usize>, Vec<usize>)> = (0..n)
            .map(|v| {
                let mut out: Vec<usize> = adj_out[v].iter().map(|&u| colors[u]).collect();
                out.sort_unstable();
                let mut inc: Vec<usize> = adj_in[v].iter().map(|&u| colors[u]).collect();
                inc.sort_unstable();
                (colors[v], out, inc)
            })
            .collect();
        let mut uniq: Vec<&(usize, Vec<usize>, Vec<usize>)> = keys.iter().collect();
        uniq.sort();
        uniq.dedup();
        let new: Vec<usize> = keys
            .iter()
            .map(|k| uniq.binary_search(&k).expect("key is present"))
            .collect();
        if new == *colors {
            return;
        }
        *colors = new;
    }
}

/// The lowest color shared by two or more nodes, if any.
fn first_non_singleton(colors: &[usize]) -> Option<usize> {
    let n = colors.len();
    let mut count = vec![0usize; n];
    for &c in colors {
        count[c] += 1;
    }
    (0..n).find(|&c| count[c] >= 2)
}

/// Encode a graph under a discrete coloring (node at canonical position `p`
/// is the one with color `p`): node count, per-position length-prefixed label
/// bytes, then the sorted edge list in position space.
fn encode(colors: &[usize], labels: &[Vec<u8>], adj_out: &[Vec<usize>]) -> Vec<u8> {
    let n = colors.len();
    let mut node_at = vec![0usize; n];
    for (v, &c) in colors.iter().enumerate() {
        node_at[c] = v;
    }
    let mut out = Vec::new();
    push_u32(&mut out, u32::try_from(n).expect("graph fits in u32"));
    for &v in &node_at {
        let l = &labels[v];
        push_u32(&mut out, u32::try_from(l.len()).expect("label fits in u32"));
        out.extend_from_slice(l);
    }
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for (v, dsts) in adj_out.iter().enumerate() {
        for &u in dsts {
            edges.push((colors[v] as u32, colors[u] as u32));
        }
    }
    edges.sort_unstable();
    push_u32(
        &mut out,
        u32::try_from(edges.len()).expect("edges fit in u32"),
    );
    for (a, b) in edges {
        push_u32(&mut out, a);
        push_u32(&mut out, b);
    }
    out
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a labeled digraph from node labels and index edges.
    fn graph(labels: &[&str], edges: &[(usize, usize)]) -> DiGraph<String, ()> {
        let mut g = DiGraph::new();
        let ids: Vec<_> = labels
            .iter()
            .map(|l| g.add_node((*l).to_string()))
            .collect();
        for &(a, b) in edges {
            g.add_edge(ids[a], ids[b], ());
        }
        g
    }

    /// Orbit partition by brute force: union-find over every label- and
    /// edge-preserving permutation of the node set.
    fn brute_force_orbits(g: &DiGraph<String, ()>) -> Vec<usize> {
        let n = g.num_nodes();
        let labels: Vec<String> = g.nodes().map(|(_, w)| w.clone()).collect();
        let mut edges: Vec<(usize, usize)> =
            g.edges().map(|e| (e.src.index(), e.dst.index())).collect();
        edges.sort_unstable();
        let mut uf: Vec<usize> = (0..n).collect();
        let mut perm: Vec<usize> = (0..n).collect();
        permute_all(&mut perm, 0, &mut |p: &[usize]| {
            if (0..n).any(|v| labels[p[v]] != labels[v]) {
                return;
            }
            let mut mapped: Vec<(usize, usize)> =
                edges.iter().map(|&(a, b)| (p[a], p[b])).collect();
            mapped.sort_unstable();
            if mapped != edges {
                return;
            }
            for (v, &pv) in p.iter().enumerate() {
                let a = uf_find(&mut uf, v);
                let b = uf_find(&mut uf, pv);
                if a != b {
                    uf[a.max(b)] = a.min(b);
                }
            }
        });
        let reps: Vec<usize> = (0..n).map(|v| uf_find(&mut uf, v)).collect();
        // Normalize: representative = minimum member.
        let mut min_of = vec![usize::MAX; n];
        for (v, &r) in reps.iter().enumerate() {
            min_of[r] = min_of[r].min(v);
        }
        reps.iter().map(|&r| min_of[r]).collect()
    }

    fn permute_all(perm: &mut Vec<usize>, k: usize, f: &mut impl FnMut(&[usize])) {
        if k == perm.len() {
            f(perm);
            return;
        }
        for i in k..perm.len() {
            perm.swap(k, i);
            permute_all(perm, k + 1, f);
            perm.swap(k, i);
        }
    }

    fn aut(g: &DiGraph<String, ()>) -> Automorphisms {
        automorphisms(g, |l| l.clone().into_bytes())
    }

    #[test]
    fn orbits_match_brute_force_on_small_digraphs() {
        let cases: Vec<DiGraph<String, ()>> = vec![
            // Two identical parallel lines sharing nothing.
            graph(&["s", "m", "s", "m"], &[(0, 1), (2, 3)]),
            // Directed 4-cycle of identical labels: one orbit, cyclic group.
            graph(&["a"; 4], &[(0, 1), (1, 2), (2, 3), (3, 0)]),
            // Fan: hub feeding three identical spokes.
            graph(&["h", "s", "s", "s"], &[(0, 1), (0, 2), (0, 3)]),
            // Labels break the symmetry of a 4-cycle.
            graph(&["a", "b", "a", "b"], &[(0, 1), (1, 2), (2, 3), (3, 0)]),
            // Asymmetric path: trivial group.
            graph(&["x", "y", "z"], &[(0, 1), (1, 2)]),
            // Diamond with interchangeable middles plus a parallel edge.
            graph(
                &["s", "m", "m", "t"],
                &[(0, 1), (0, 2), (1, 3), (2, 3), (0, 1)],
            ),
            // Two 2-cycles of identical labels (orbit of all four nodes).
            graph(&["a"; 4], &[(0, 1), (1, 0), (2, 3), (3, 2)]),
            // Six nodes: two identical triangles.
            graph(&["a"; 6], &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]),
        ];
        for (i, g) in cases.iter().enumerate() {
            let expect = brute_force_orbits(g);
            let got = aut(g);
            let got_reps: Vec<usize> = (0..g.num_nodes()).map(|v| got.orbit_rep(v)).collect();
            assert_eq!(got_reps, expect, "case {i}");
        }
    }

    #[test]
    fn generators_are_valid_automorphisms() {
        let g = graph(&["a"; 4], &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let a = aut(&g);
        assert!(!a.is_trivial());
        let mut edges: Vec<(usize, usize)> =
            g.edges().map(|e| (e.src.index(), e.dst.index())).collect();
        edges.sort_unstable();
        for p in a.generators() {
            let mut mapped: Vec<(usize, usize)> =
                edges.iter().map(|&(s, d)| (p[s], p[d])).collect();
            mapped.sort_unstable();
            assert_eq!(mapped, edges, "generator {p:?} must preserve edges");
        }
    }

    #[test]
    fn trivial_group_on_distinct_labels() {
        let g = graph(&["x", "y", "z"], &[(0, 1), (1, 2)]);
        let a = aut(&g);
        assert!(a.is_trivial());
        assert_eq!(a.num_orbits(), 3);
        assert_eq!(a.orbits(), vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn parallel_lines_form_pairwise_orbits() {
        // Two identical s -> m lines: {s0, s2} and {m1, m3} orbits.
        let g = graph(&["s", "m", "s", "m"], &[(0, 1), (2, 3)]);
        let a = aut(&g);
        assert_eq!(a.num_orbits(), 2);
        assert_eq!(a.orbits(), vec![vec![0, 2], vec![1, 3]]);
        assert_eq!(a.orbit_rep(2), 0);
        assert_eq!(a.orbit_rep(3), 1);
    }

    #[test]
    fn empty_graph_automorphisms() {
        let g: DiGraph<String, ()> = DiGraph::new();
        let a = automorphisms(&g, |l| l.clone().into_bytes());
        assert!(a.is_trivial());
        assert_eq!(a.num_orbits(), 0);
        assert_eq!(a.num_nodes(), 0);
    }

    #[test]
    fn identity_group_accessors() {
        let a = Automorphisms::identity(3);
        assert!(a.is_trivial());
        assert_eq!(a.num_nodes(), 3);
        assert_eq!(a.num_orbits(), 3);
        assert_eq!(a.orbit_rep(2), 2);
        assert!(a.generators().is_empty());
    }
}
