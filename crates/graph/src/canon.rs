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
//! The algorithm is individualization–refinement with first-path pruning
//! (McKay and Piperno, *Practical graph isomorphism II*, 2014):
//!
//! 1. color nodes by their label bytes;
//! 2. refine with Weisfeiler–Leman sweeps (a node's new color is its old
//!    color plus the multisets of its in- and out-neighbor colors) until the
//!    partition stabilizes;
//! 3. follow the *first path* down to a discrete leaf: at each level,
//!    individualize the lowest-indexed member `v_k` of the lowest-colored
//!    non-singleton cell and refine;
//! 4. deepest level first, for each other member `w` of level `k`'s cell
//!    that the generators found so far do not already map onto `v_k`,
//!    search `w`'s subtree for one leaf whose position map to the first
//!    leaf preserves labels and edges, and keep that map as a generator.
//!
//! A generator found at level `k` fixes `v_0, …, v_{k-1}` and maps `w` to
//! `v_k`, so by the Schreier argument the generators of all levels together
//! generate the whole group, and a member already known to share `v_k`'s
//! orbit needs no search. The subtree search skips every node whose
//! color-class sizes differ from the first path's at the same depth, since
//! an automorphism preserves them. The search is still exponential in the
//! worst case, but it visits one subtree per orbit member rather than one
//! leaf per automorphism: twenty individualize-and-refine steps on six
//! interchangeable lines, whose group has 720 elements.

use crate::digraph::DiGraph;
use std::collections::HashMap;

/// The automorphism structure of a labeled digraph: a generating set of
/// label-preserving permutations plus the node-orbit partition they induce.
///
/// Produced by [`automorphisms`] from a first-path
/// individualization–refinement search. Each generator maps a discrete leaf
/// of the search tree onto the first leaf (node `v` goes to the node that
/// holds `v`'s position in the first leaf); together they generate the full
/// group `Aut(G)`, not just a subgroup with the same orbits. Every generator
/// joins two orbits of the generators before it, so there are at most
/// `n − 1`.
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
/// isomorphism, edge weights do not) by a first-path
/// individualization–refinement search. Adds the search's
/// individualize-and-refine steps to the `aut.search_nodes` counter.
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
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for e in graph.edges() {
        adj_out[e.src.index()].push(e.dst.index());
        adj_in[e.dst.index()].push(e.src.index());
        edges.push((e.src.index(), e.dst.index()));
    }
    edges.sort_unstable();
    let mut uniq: Vec<&Vec<u8>> = labels.iter().collect();
    uniq.sort();
    uniq.dedup();
    let mut colors: Vec<usize> = labels
        .iter()
        .map(|l| uniq.binary_search(&l).expect("label is present"))
        .collect();
    refine(&mut colors, &adj_out, &adj_in);

    let mut search = Search {
        labels,
        adj_out,
        adj_in,
        edges,
        steps: 0,
    };
    // The first path: `path[k]` is the coloring at depth `k`, and `chosen[k]`
    // the node individualized to reach depth `k + 1`.
    let mut path = vec![colors];
    let mut chosen = Vec::new();
    while let Some(&v) = target_cell(&path[path.len() - 1]).first() {
        let child = search.individualize(&path[path.len() - 1], v);
        chosen.push(v);
        path.push(child);
    }
    let shapes: Vec<Vec<usize>> = path.iter().map(|c| class_sizes(c)).collect();
    let mut leaf_node = vec![0usize; n];
    for (v, &c) in path[path.len() - 1].iter().enumerate() {
        leaf_node[c] = v;
    }

    let mut generators = Vec::new();
    let mut uf: Vec<usize> = (0..n).collect();
    for (k, &vk) in chosen.iter().enumerate().rev() {
        for w in target_cell(&path[k]) {
            if uf_find(&mut uf, w) == uf_find(&mut uf, vk) {
                continue;
            }
            let child = search.individualize(&path[k], w);
            if let Some(perm) = search.find_leaf(&child, k + 1, &shapes, &leaf_node) {
                for (v, &pv) in perm.iter().enumerate() {
                    let a = uf_find(&mut uf, v);
                    let b = uf_find(&mut uf, pv);
                    uf[a.max(b)] = a.min(b);
                }
                generators.push(perm);
            }
        }
    }
    contrarc_obs::metrics::counter_add("aut.search_nodes", search.steps);

    let mut orbit_rep = vec![usize::MAX; n];
    for v in 0..n {
        let r = uf_find(&mut uf, v);
        orbit_rep[r] = orbit_rep[r].min(v);
    }
    let reps = orbit_rep.clone();
    for v in 0..n {
        orbit_rep[v] = reps[uf_find(&mut uf, v)];
    }
    Automorphisms {
        n,
        generators,
        orbit_rep,
    }
}

/// The graph in index form for [`automorphisms`], plus its count of
/// individualize-and-refine steps.
struct Search {
    labels: Vec<Vec<u8>>,
    adj_out: Vec<Vec<usize>>,
    adj_in: Vec<Vec<usize>>,
    /// The sorted edge multiset a candidate automorphism must preserve.
    edges: Vec<(usize, usize)>,
    steps: u64,
}

impl Search {
    /// Separate `v` from its cell and refine.
    fn individualize(&mut self, colors: &[usize], v: usize) -> Vec<usize> {
        self.steps += 1;
        let mut split = colors.to_vec();
        // A fresh color beyond every rank: the next refine pass renormalizes
        // it while keeping v separated from its cell.
        split[v] = colors.len();
        refine(&mut split, &self.adj_out, &self.adj_in);
        split
    }

    /// Depth-first search of the subtree rooted at `colors` (at `depth`),
    /// children in index order, for a discrete leaf whose position map onto
    /// the first leaf (`leaf_node[p]` is the first leaf's node at position
    /// `p`) is an automorphism. Nodes whose color-class sizes differ from the
    /// first path's at the same depth (`shapes`) are skipped.
    fn find_leaf(
        &mut self,
        colors: &[usize],
        depth: usize,
        shapes: &[Vec<usize>],
        leaf_node: &[usize],
    ) -> Option<Vec<usize>> {
        if class_sizes(colors) != shapes[depth] {
            return None;
        }
        let cell = target_cell(colors);
        if cell.is_empty() {
            let perm: Vec<usize> = colors.iter().map(|&c| leaf_node[c]).collect();
            return self.is_automorphism(&perm).then_some(perm);
        }
        for v in cell {
            let child = self.individualize(colors, v);
            if let Some(perm) = self.find_leaf(&child, depth + 1, shapes, leaf_node) {
                return Some(perm);
            }
        }
        None
    }

    /// Whether `perm` preserves every node label and the edge multiset.
    fn is_automorphism(&self, perm: &[usize]) -> bool {
        if perm
            .iter()
            .enumerate()
            .any(|(v, &pv)| self.labels[v] != self.labels[pv])
        {
            return false;
        }
        let mut mapped: Vec<(usize, usize)> = self
            .edges
            .iter()
            .map(|&(a, b)| (perm[a], perm[b]))
            .collect();
        mapped.sort_unstable();
        mapped == self.edges
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

/// The number of nodes of each color.
fn class_sizes(colors: &[usize]) -> Vec<usize> {
    let mut count = vec![0usize; colors.len()];
    for &c in colors {
        count[c] += 1;
    }
    count
}

/// The members, ascending, of the lowest color shared by two or more nodes;
/// empty when the coloring is discrete.
fn target_cell(colors: &[usize]) -> Vec<usize> {
    match class_sizes(colors).iter().position(|&k| k >= 2) {
        Some(cell) => (0..colors.len()).filter(|&v| colors[v] == cell).collect(),
        None => Vec::new(),
    }
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

    /// Orbit partition and group order by brute force: union-find over
    /// every label- and edge-preserving permutation of the node set.
    fn brute_force(g: &DiGraph<String, ()>) -> (Vec<usize>, usize) {
        let n = g.num_nodes();
        let labels: Vec<String> = g.nodes().map(|(_, w)| w.clone()).collect();
        let mut edges: Vec<(usize, usize)> =
            g.edges().map(|e| (e.src.index(), e.dst.index())).collect();
        edges.sort_unstable();
        let mut uf: Vec<usize> = (0..n).collect();
        let mut order = 0;
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
            order += 1;
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
        (reps.iter().map(|&r| min_of[r]).collect(), order)
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
            let (expect, _) = brute_force(g);
            let got = aut(g);
            let got_reps: Vec<usize> = (0..g.num_nodes()).map(|v| got.orbit_rep(v)).collect();
            assert_eq!(got_reps, expect, "case {i}");
        }
    }

    /// A tiny deterministic RNG (xorshift*), so the oracle needs no
    /// dependencies and is stable across platforms.
    struct Rng(u64);

    impl Rng {
        fn new(seed: u64) -> Self {
            Rng(seed.wrapping_mul(2685821657736338717).max(1))
        }
        /// Uniform in `0..n`.
        fn below(&mut self, n: usize) -> usize {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            (x.wrapping_mul(2685821657736338717) % n as u64) as usize
        }
    }

    /// A seeded random labeled digraph of at most seven nodes over two or
    /// three labels, with parallel edges and self-loops. Odd seeds make it
    /// two to seven disjoint copies of one random component, so that some
    /// groups are large (seven isolated equal nodes give all 5,040
    /// permutations).
    fn random_digraph(seed: u64) -> DiGraph<String, ()> {
        let mut rng = Rng::new(seed);
        let alphabet = ["a", "b", "c"];
        let num_labels = 2 + rng.below(2);
        let (size, copies) = if seed.is_multiple_of(2) {
            (1 + rng.below(7), 1)
        } else {
            let size = 1 + rng.below(3);
            (size, 2 + rng.below(7 / size - 1))
        };
        let labels: Vec<&str> = (0..size).map(|_| alphabet[rng.below(num_labels)]).collect();
        let edges: Vec<(usize, usize)> = (0..rng.below(2 * size + 2))
            .map(|_| (rng.below(size), rng.below(size)))
            .collect();
        let mut all_labels = Vec::new();
        let mut all_edges = Vec::new();
        for c in 0..copies {
            all_labels.extend_from_slice(&labels);
            all_edges.extend(edges.iter().map(|&(a, b)| (c * size + a, c * size + b)));
        }
        graph(&all_labels, &all_edges)
    }

    /// Number of elements of the group the permutations `gens` generate.
    fn closure_size(n: usize, gens: &[Vec<usize>]) -> usize {
        let identity: Vec<usize> = (0..n).collect();
        let mut seen = std::collections::HashSet::from([identity.clone()]);
        let mut stack = vec![identity];
        while let Some(p) = stack.pop() {
            for g in gens {
                let q: Vec<usize> = p.iter().map(|&v| g[v]).collect();
                if seen.insert(q.clone()) {
                    stack.push(q);
                }
            }
        }
        seen.len()
    }

    #[test]
    fn automorphisms_match_brute_force_on_random_digraphs() {
        let mut largest = 0;
        for seed in 0..200 {
            let g = random_digraph(seed);
            let n = g.num_nodes();
            let (expect_reps, order) = brute_force(&g);
            let got = aut(&g);
            let got_reps: Vec<usize> = (0..n).map(|v| got.orbit_rep(v)).collect();
            assert_eq!(got_reps, expect_reps, "seed {seed}: orbits");
            let labels: Vec<&String> = g.nodes().map(|(_, l)| l).collect();
            let mut edges: Vec<(usize, usize)> =
                g.edges().map(|e| (e.src.index(), e.dst.index())).collect();
            edges.sort_unstable();
            for p in got.generators() {
                let mut image = p.clone();
                image.sort_unstable();
                assert_eq!(image, (0..n).collect::<Vec<_>>(), "seed {seed}: {p:?}");
                assert!(
                    (0..n).all(|v| labels[p[v]] == labels[v]),
                    "seed {seed}: generator {p:?} must preserve labels"
                );
                let mut mapped: Vec<(usize, usize)> =
                    edges.iter().map(|&(a, b)| (p[a], p[b])).collect();
                mapped.sort_unstable();
                assert_eq!(
                    mapped, edges,
                    "seed {seed}: generator {p:?} must preserve edges"
                );
            }
            assert_eq!(
                closure_size(n, got.generators()),
                order,
                "seed {seed}: the generators must generate the whole group"
            );
            assert!(
                got.generators().len() < n,
                "seed {seed}: at most n - 1 generators"
            );
            largest = largest.max(order);
        }
        assert_eq!(
            largest, 5040,
            "some seed must reach the full symmetric group"
        );
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
