//! VF2-style subgraph isomorphism: enumerate all embeddings of a pattern
//! graph in a target graph.
//!
//! Two matching semantics are offered:
//!
//! * [`MatchMode::Monomorphism`] — every pattern edge must map to a target
//!   edge (extra target edges between mapped nodes are allowed). This is the
//!   semantics Algorithm 2 of the paper needs: an invalid *path* is also
//!   invalid when it occurs inside a denser architecture.
//! * [`MatchMode::Induced`] — additionally, target edges between mapped
//!   nodes must exist in the pattern (classical induced subgraph
//!   isomorphism, Definition 4 of the paper).
//!
//! Node compatibility is a caller-supplied predicate, used by ContrArc to
//! require equal component *types*.

use crate::canon::Automorphisms;
use crate::digraph::{DiGraph, NodeId};
use std::collections::BTreeSet;
use std::fmt;

/// Matching semantics for [`subgraph_isomorphisms`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatchMode {
    /// Pattern edges must exist in the target; extra target edges are fine.
    Monomorphism,
    /// Exact induced matching: edges and non-edges must agree.
    Induced,
}

/// An injective mapping from pattern nodes to target nodes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Embedding {
    map: Vec<NodeId>,
}

impl Embedding {
    /// Build an embedding from an explicit mapping (`map[i]` is the target
    /// node of pattern node `i`). Used for the identity embedding when
    /// isomorphism enumeration is disabled; the caller is responsible for
    /// validity.
    #[must_use]
    pub fn from_mapping(map: Vec<NodeId>) -> Self {
        Embedding { map }
    }

    /// Target node that the pattern node `p` maps to.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a node of the pattern this embedding was found
    /// for.
    #[must_use]
    pub fn target(&self, p: NodeId) -> NodeId {
        self.map[p.index()]
    }

    /// The full mapping, indexed by pattern-node index.
    #[must_use]
    pub fn as_slice(&self) -> &[NodeId] {
        &self.map
    }

    /// Iterate over `(pattern, target)` node pairs.
    pub fn pairs(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.map
            .iter()
            .enumerate()
            .map(|(i, &t)| (NodeId::from_index(i), t))
    }
}

impl fmt::Display for Embedding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (p, t)) in self.pairs().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}→{t}")?;
        }
        write!(f, "}}")
    }
}

/// Enumerate all subgraph-isomorphic embeddings of `pattern` in `target`.
///
/// `compat(p_weight, t_weight)` decides whether a pattern node may map to a
/// target node (ContrArc passes type equality). See [`MatchMode`] for edge
/// semantics. Embeddings that differ only by which pattern node maps where
/// within a symmetric pattern are reported separately, matching the behaviour
/// of DotMotif used in the paper.
#[must_use]
pub fn subgraph_isomorphisms<N1, E1, N2, E2, F>(
    pattern: &DiGraph<N1, E1>,
    target: &DiGraph<N2, E2>,
    mode: MatchMode,
    compat: F,
) -> Vec<Embedding>
where
    F: Fn(&N1, &N2) -> bool,
{
    let np = pattern.num_nodes();
    if np == 0 {
        return vec![Embedding { map: Vec::new() }];
    }
    if np > target.num_nodes() {
        return Vec::new();
    }

    let mut search_span = contrarc_obs::span!(
        "vf2.search",
        pattern_nodes = np,
        target_nodes = target.num_nodes(),
    );
    let order = matching_order(pattern, target, &compat);
    let mut state = State {
        pattern,
        target,
        mode,
        compat: &compat,
        order: &order,
        map: vec![None; np],
        used: vec![false; target.num_nodes()],
        out: Vec::new(),
        max_depth: 0,
    };
    state.extend(0);
    record_search_metrics(&mut search_span, state.out.len(), state.max_depth);
    state.out
}

/// Shared close-out for the plain and orbit-pruned enumerators: counters
/// and the close-time span fields.
fn record_search_metrics(span: &mut contrarc_obs::SpanGuard, embeddings: usize, max_depth: usize) {
    contrarc_obs::metrics::counter_add("vf2.searches", 1);
    contrarc_obs::metrics::counter_add("vf2.embeddings", embeddings as u64);
    span.record("embeddings", embeddings);
    span.record("max_depth", max_depth);
}

/// One target-automorphism orbit of embeddings: the orbit-minimal
/// representative plus every member (representative included), members
/// sorted by their target-index vectors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmbeddingOrbit {
    /// The lexicographically smallest member of the orbit.
    pub representative: Embedding,
    /// Every embedding in the orbit, representative included.
    pub members: Vec<Embedding>,
}

impl EmbeddingOrbit {
    /// Orbit size — the symmetry multiplier of the representative.
    #[must_use]
    pub fn multiplier(&self) -> usize {
        self.members.len()
    }
}

/// Result of [`subgraph_isomorphisms_orbits`]: the embedding set grouped
/// into target-automorphism orbits, plus how many embeddings the pruned
/// search actually enumerated (the saved work is `total() - enumerated`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrbitMatches {
    /// Orbits in the order their first-found member was enumerated.
    pub orbits: Vec<EmbeddingOrbit>,
    /// Embeddings the pruned VF2 search enumerated (before orbit expansion).
    pub enumerated: u64,
}

impl OrbitMatches {
    /// Total embeddings across all orbits — exactly the size of the set
    /// [`subgraph_isomorphisms`] would have enumerated.
    #[must_use]
    pub fn total(&self) -> usize {
        self.orbits.iter().map(|o| o.members.len()).sum()
    }

    /// Flatten every orbit's members into one embedding list.
    #[must_use]
    pub fn into_embeddings(self) -> Vec<Embedding> {
        self.orbits.into_iter().flat_map(|o| o.members).collect()
    }
}

/// Orbit-pruned enumeration: find the same embedding *set* as
/// [`subgraph_isomorphisms`] while only searching from one root image
/// per target-node orbit, then recover the full set by closing each found
/// embedding under the automorphism generators.
///
/// `aut` must describe the automorphisms of `target` under a node labeling
/// at least as strong as `compat` distinguishes (ContrArc computes it with
/// the component-type label that `compat` compares). Under that contract the
/// expansion is exact:
///
/// * every generator image of an embedding is itself a valid embedding
///   (generators preserve labels and the edge multiset, in both match
///   modes), and
/// * every embedding is a generator-closure image of one whose root maps to
///   an orbit-minimal target node, because some group element carries its
///   root image to the orbit representative.
///
/// With a trivial group this degrades to the plain enumeration with
/// singleton orbits.
#[must_use]
pub fn subgraph_isomorphisms_orbits<N1, E1, N2, E2, F>(
    pattern: &DiGraph<N1, E1>,
    target: &DiGraph<N2, E2>,
    mode: MatchMode,
    aut: &Automorphisms,
    compat: F,
) -> OrbitMatches
where
    F: Fn(&N1, &N2) -> bool,
{
    assert_eq!(
        aut.num_nodes(),
        target.num_nodes(),
        "automorphism group must act on the target's node set"
    );
    if aut.is_trivial() {
        let found = subgraph_isomorphisms(pattern, target, mode, compat);
        let enumerated = found.len() as u64;
        let orbits = found
            .into_iter()
            .map(|e| EmbeddingOrbit {
                representative: e.clone(),
                members: vec![e],
            })
            .collect();
        return OrbitMatches { orbits, enumerated };
    }

    let np = pattern.num_nodes();
    if np == 0 {
        let e = Embedding { map: Vec::new() };
        return OrbitMatches {
            orbits: vec![EmbeddingOrbit {
                representative: e.clone(),
                members: vec![e],
            }],
            enumerated: 1,
        };
    }
    if np > target.num_nodes() {
        return OrbitMatches {
            orbits: Vec::new(),
            enumerated: 0,
        };
    }

    let mut search_span = contrarc_obs::span!(
        "vf2.search",
        pattern_nodes = np,
        target_nodes = target.num_nodes(),
    );
    let order = matching_order(pattern, target, &compat);
    let mut state = State {
        pattern,
        target,
        mode,
        compat: &compat,
        order: &order,
        map: vec![None; np],
        used: vec![false; target.num_nodes()],
        out: Vec::new(),
        max_depth: 0,
    };
    // The depth-0 candidates of the plain search (every target node, in id
    // order), restricted to one representative per target orbit.
    let root = order[0];
    for t in target.node_ids() {
        if aut.orbit_rep(t.index()) == t.index() && state.feasible(root, t) {
            state.map[root.index()] = Some(t);
            state.used[t.index()] = true;
            state.extend(1);
            state.map[root.index()] = None;
            state.used[t.index()] = false;
        }
    }
    let (found, max_depth) = (state.out, state.max_depth);
    let enumerated = found.len() as u64;
    record_search_metrics(&mut search_span, found.len(), max_depth);

    // Serial expansion: close each found embedding under the generators.
    // Two found embeddings can share an orbit (a group element may fix the
    // orbit-minimal root while moving other images), so skip already-seen
    // maps.
    let mut seen: BTreeSet<Vec<usize>> = BTreeSet::new();
    let mut orbits = Vec::new();
    for emb in found {
        let key: Vec<usize> = emb.map.iter().map(|t| t.index()).collect();
        if seen.contains(&key) {
            continue;
        }
        seen.insert(key.clone());
        let mut members = vec![key];
        let mut i = 0;
        while i < members.len() {
            for g in aut.generators() {
                let img: Vec<usize> = members[i].iter().map(|&t| g[t]).collect();
                if seen.insert(img.clone()) {
                    members.push(img);
                }
            }
            i += 1;
        }
        members.sort_unstable();
        let to_emb = |m: &Vec<usize>| Embedding {
            map: m.iter().map(|&t| NodeId::from_index(t)).collect(),
        };
        orbits.push(EmbeddingOrbit {
            representative: to_emb(&members[0]),
            members: members.iter().map(to_emb).collect(),
        });
    }
    OrbitMatches { orbits, enumerated }
}

/// Whether `pattern` and `target` are isomorphic as directed graphs
/// (same node count, same edge count, and an induced embedding exists).
#[must_use]
pub fn is_isomorphic<N1, E1, N2, E2, F>(a: &DiGraph<N1, E1>, b: &DiGraph<N2, E2>, compat: F) -> bool
where
    F: Fn(&N1, &N2) -> bool,
{
    a.num_nodes() == b.num_nodes()
        && a.num_edges() == b.num_edges()
        && first_isomorphism(a, b, MatchMode::Induced, compat).is_some()
}

/// Find one embedding (or `None`); cheaper than enumerating all of them.
#[must_use]
pub fn first_isomorphism<N1, E1, N2, E2, F>(
    pattern: &DiGraph<N1, E1>,
    target: &DiGraph<N2, E2>,
    mode: MatchMode,
    compat: F,
) -> Option<Embedding>
where
    F: Fn(&N1, &N2) -> bool,
{
    let np = pattern.num_nodes();
    if np == 0 {
        return Some(Embedding { map: Vec::new() });
    }
    if np > target.num_nodes() {
        return None;
    }
    let order = matching_order(pattern, target, &compat);
    let mut state = State {
        pattern,
        target,
        mode,
        compat: &compat,
        order: &order,
        map: vec![None; np],
        used: vec![false; target.num_nodes()],
        out: Vec::new(),
        max_depth: 0,
    };
    state.extend_first(0);
    state.out.into_iter().next()
}

/// Order pattern nodes most-constrained-first: each step places the unplaced
/// node with the fewest label-and-degree-compatible target candidates,
/// preferring nodes adjacent to the already-placed prefix (so every node
/// after the first is constrained by a mapped neighbor where the pattern's
/// connectivity allows). Candidate counts are computed against the *target*,
/// which is what shrinks the search tree: a pattern node whose label occurs
/// twice in the target prunes far harder at depth 0 than a high-degree node
/// whose label is everywhere.
fn matching_order<N1, E1, N2, E2, F>(
    pattern: &DiGraph<N1, E1>,
    target: &DiGraph<N2, E2>,
    compat: &F,
) -> Vec<NodeId>
where
    F: Fn(&N1, &N2) -> bool,
{
    let n = pattern.num_nodes();
    let degree = |v: NodeId| pattern.in_degree(v) + pattern.out_degree(v);
    // Compatible-candidate count per pattern node (label + degree pruning,
    // mirroring `State::feasible`).
    let cands: Vec<usize> = (0..n)
        .map(NodeId::from_index)
        .map(|p| {
            target
                .node_ids()
                .filter(|&t| {
                    compat(pattern.node_weight(p), target.node_weight(t))
                        && pattern.out_degree(p) <= target.out_degree(t)
                        && pattern.in_degree(p) <= target.in_degree(t)
                })
                .count()
        })
        .collect();
    let mut placed = vec![false; n];
    let mut adjacent = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for _ in 0..n {
        let pick = (0..n)
            .filter(|&i| !placed[i])
            .min_by_key(|&i| {
                (
                    // `false` sorts first: prefer neighbors of the placed
                    // prefix (vacuously none on the first pick).
                    !adjacent[i],
                    cands[i],
                    std::cmp::Reverse(degree(NodeId::from_index(i))),
                    i,
                )
            })
            .expect("unplaced node exists");
        placed[pick] = true;
        let v = NodeId::from_index(pick);
        order.push(v);
        for u in pattern.successors(v).chain(pattern.predecessors(v)) {
            adjacent[u.index()] = true;
        }
    }
    order
}

struct State<'a, N1, E1, N2, E2, F> {
    pattern: &'a DiGraph<N1, E1>,
    target: &'a DiGraph<N2, E2>,
    mode: MatchMode,
    compat: &'a F,
    order: &'a [NodeId],
    map: Vec<Option<NodeId>>,
    used: Vec<bool>,
    out: Vec<Embedding>,
    /// Deepest recursion level reached; observability only.
    max_depth: usize,
}

impl<N1, E1, N2, E2, F> State<'_, N1, E1, N2, E2, F>
where
    F: Fn(&N1, &N2) -> bool,
{
    fn extend(&mut self, depth: usize) {
        self.max_depth = self.max_depth.max(depth);
        if depth == self.order.len() {
            self.record();
            return;
        }
        let p = self.order[depth];
        let candidates = self.candidates(p);
        for t in candidates {
            if self.feasible(p, t) {
                self.map[p.index()] = Some(t);
                self.used[t.index()] = true;
                self.extend(depth + 1);
                self.map[p.index()] = None;
                self.used[t.index()] = false;
            }
        }
    }

    fn extend_first(&mut self, depth: usize) -> bool {
        self.max_depth = self.max_depth.max(depth);
        if depth == self.order.len() {
            self.record();
            return true;
        }
        let p = self.order[depth];
        let candidates = self.candidates(p);
        for t in candidates {
            if self.feasible(p, t) {
                self.map[p.index()] = Some(t);
                self.used[t.index()] = true;
                if self.extend_first(depth + 1) {
                    return true;
                }
                self.map[p.index()] = None;
                self.used[t.index()] = false;
            }
        }
        false
    }

    fn record(&mut self) {
        let map = self
            .map
            .iter()
            .map(|m| m.expect("complete mapping"))
            .collect();
        self.out.push(Embedding { map });
    }

    /// Candidate target nodes for pattern node `p`: neighbors of an
    /// already-mapped neighbor when one exists, otherwise all target nodes.
    fn candidates(&self, p: NodeId) -> Vec<NodeId> {
        // A mapped pattern predecessor constrains candidates to successors of
        // its image (and symmetrically).
        for e in self.pattern.in_edges(p) {
            if let Some(img) = self.map[e.src.index()] {
                return self.target.successors(img).collect();
            }
        }
        for e in self.pattern.out_edges(p) {
            if let Some(img) = self.map[e.dst.index()] {
                return self.target.predecessors(img).collect();
            }
        }
        self.target.node_ids().collect()
    }

    fn feasible(&self, p: NodeId, t: NodeId) -> bool {
        if self.used[t.index()] {
            return false;
        }
        if !(self.compat)(self.pattern.node_weight(p), self.target.node_weight(t)) {
            return false;
        }
        // Degree pruning (valid for both modes).
        if self.pattern.out_degree(p) > self.target.out_degree(t)
            || self.pattern.in_degree(p) > self.target.in_degree(t)
        {
            return false;
        }
        // Every pattern edge between p and a mapped node must exist in the
        // target.
        for e in self.pattern.out_edges(p) {
            if let Some(img) = self.map[e.dst.index()] {
                if !self.target.contains_edge(t, img) {
                    return false;
                }
            }
        }
        for e in self.pattern.in_edges(p) {
            if let Some(img) = self.map[e.src.index()] {
                if !self.target.contains_edge(img, t) {
                    return false;
                }
            }
        }
        if self.mode == MatchMode::Induced {
            // Target edges between t and mapped images must exist in the
            // pattern too.
            for (q, img) in self.mapped_pairs() {
                if self.target.contains_edge(t, img) && !self.pattern.contains_edge(p, q) {
                    return false;
                }
                if self.target.contains_edge(img, t) && !self.pattern.contains_edge(q, p) {
                    return false;
                }
            }
        }
        true
    }

    fn mapped_pairs(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.map
            .iter()
            .enumerate()
            .filter_map(|(i, m)| m.map(|t| (NodeId::from_index(i), t)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(labels: &[&'static str]) -> DiGraph<&'static str, ()> {
        let mut g = DiGraph::new();
        let ids: Vec<_> = labels.iter().map(|&l| g.add_node(l)).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1], ());
        }
        g
    }

    fn label_eq(a: &&str, b: &&str) -> bool {
        a == b
    }

    #[test]
    fn path_in_two_lines() {
        let pat = path_graph(&["s", "m", "t"]);
        let mut tgt = DiGraph::new();
        let ids: Vec<_> = ["s", "m", "t", "s", "m", "t"]
            .iter()
            .map(|&l| tgt.add_node(l))
            .collect();
        tgt.add_edge(ids[0], ids[1], ());
        tgt.add_edge(ids[1], ids[2], ());
        tgt.add_edge(ids[3], ids[4], ());
        tgt.add_edge(ids[4], ids[5], ());
        let found = subgraph_isomorphisms(&pat, &tgt, MatchMode::Monomorphism, label_eq);
        assert_eq!(found.len(), 2);
    }

    #[test]
    fn labels_prune_matches() {
        let pat = path_graph(&["a", "b"]);
        let tgt = path_graph(&["a", "c"]);
        let found = subgraph_isomorphisms(&pat, &tgt, MatchMode::Monomorphism, label_eq);
        assert!(found.is_empty());
    }

    #[test]
    fn direction_matters() {
        let pat = path_graph(&["a", "b"]);
        let mut tgt = DiGraph::new();
        let a = tgt.add_node("a");
        let b = tgt.add_node("b");
        tgt.add_edge(b, a, ()); // reversed
        let found = subgraph_isomorphisms(&pat, &tgt, MatchMode::Monomorphism, label_eq);
        assert!(found.is_empty());
    }

    #[test]
    fn monomorphism_allows_extra_target_edges() {
        let pat = path_graph(&["a", "b"]);
        let mut tgt = DiGraph::new();
        let a = tgt.add_node("a");
        let b = tgt.add_node("b");
        tgt.add_edge(a, b, ());
        tgt.add_edge(b, a, ()); // extra back-edge
        let mono = subgraph_isomorphisms(&pat, &tgt, MatchMode::Monomorphism, label_eq);
        assert_eq!(mono.len(), 1);
        let ind = subgraph_isomorphisms(&pat, &tgt, MatchMode::Induced, label_eq);
        assert!(ind.is_empty(), "induced must reject the extra back-edge");
    }

    #[test]
    fn triangle_symmetries_counted() {
        // Directed 3-cycle pattern matched against itself: 3 rotations.
        let mut pat: DiGraph<(), ()> = DiGraph::new();
        let a = pat.add_node(());
        let b = pat.add_node(());
        let c = pat.add_node(());
        pat.add_edge(a, b, ());
        pat.add_edge(b, c, ());
        pat.add_edge(c, a, ());
        let found = subgraph_isomorphisms(&pat, &pat, MatchMode::Monomorphism, |_, _| true);
        assert_eq!(found.len(), 3);
    }

    #[test]
    fn empty_pattern_matches_once() {
        let pat: DiGraph<(), ()> = DiGraph::new();
        let tgt = path_graph(&["a"]);
        let found = subgraph_isomorphisms(&pat, &tgt, MatchMode::Monomorphism, |_, _: &&str| true);
        assert_eq!(found.len(), 1);
        assert!(found[0].as_slice().is_empty());
    }

    #[test]
    fn pattern_larger_than_target() {
        let pat = path_graph(&["a", "b", "c"]);
        let tgt = path_graph(&["a", "b"]);
        assert!(subgraph_isomorphisms(&pat, &tgt, MatchMode::Monomorphism, label_eq).is_empty());
    }

    #[test]
    fn embedding_accessors() {
        let pat = path_graph(&["a", "b"]);
        let tgt = path_graph(&["a", "b"]);
        let found = subgraph_isomorphisms(&pat, &tgt, MatchMode::Monomorphism, label_eq);
        assert_eq!(found.len(), 1);
        let emb = &found[0];
        assert_eq!(emb.target(NodeId::from_index(0)).index(), 0);
        assert_eq!(emb.pairs().count(), 2);
        assert!(emb.to_string().contains("→"));
    }

    #[test]
    fn is_isomorphic_checks_both_counts() {
        let a = path_graph(&["x", "y"]);
        let b = path_graph(&["x", "y"]);
        assert!(is_isomorphic(&a, &b, label_eq));

        let mut c = path_graph(&["x", "y"]);
        c.add_node("z");
        assert!(!is_isomorphic(&a, &c, label_eq), "different node counts");

        let mut d = path_graph(&["x", "y"]);
        let (n0, n1) = (NodeId::from_index(0), NodeId::from_index(1));
        d.add_edge(n1, n0, ());
        assert!(!is_isomorphic(&a, &d, label_eq), "different edge counts");
    }

    #[test]
    fn first_isomorphism_short_circuits() {
        let pat = path_graph(&["s", "m"]);
        let mut tgt = DiGraph::new();
        for _ in 0..4 {
            let a = tgt.add_node("s");
            let b = tgt.add_node("m");
            tgt.add_edge(a, b, ());
        }
        let one = first_isomorphism(&pat, &tgt, MatchMode::Monomorphism, label_eq);
        assert!(one.is_some());
        let all = subgraph_isomorphisms(&pat, &tgt, MatchMode::Monomorphism, label_eq);
        assert_eq!(all.len(), 4);
    }

    #[test]
    fn disconnected_pattern_matches_product() {
        // Pattern: two isolated "a" nodes. Target: three "a" nodes.
        let mut pat: DiGraph<&str, ()> = DiGraph::new();
        pat.add_node("a");
        pat.add_node("a");
        let mut tgt: DiGraph<&str, ()> = DiGraph::new();
        for _ in 0..3 {
            tgt.add_node("a");
        }
        let found = subgraph_isomorphisms(&pat, &tgt, MatchMode::Monomorphism, label_eq);
        // Injective maps from 2 slots into 3 nodes: 3·2 = 6.
        assert_eq!(found.len(), 6);
    }

    #[test]
    fn matching_order_is_most_constrained_first() {
        // Pattern: hub "h" with spokes "s", "s", "r". The "r" spoke has one
        // compatible target node; the hub's label has three. The order must
        // start at "r" (rarest), not at the highest-degree hub.
        let mut pat: DiGraph<&str, ()> = DiGraph::new();
        let hub = pat.add_node("h");
        let s1 = pat.add_node("s");
        let s2 = pat.add_node("s");
        let rare = pat.add_node("r");
        for s in [s1, s2, rare] {
            pat.add_edge(hub, s, ());
        }
        let mut tgt: DiGraph<&str, ()> = DiGraph::new();
        for _ in 0..3 {
            let th = tgt.add_node("h");
            for _ in 0..4 {
                let ts = tgt.add_node("s");
                tgt.add_edge(th, ts, ());
            }
        }
        let tr = tgt.add_node("r");
        tgt.add_edge(NodeId::from_index(0), tr, ());
        let order = matching_order(&pat, &tgt, &label_eq);
        assert_eq!(order[0], rare, "rarest-label node must lead the order");
        // Connectivity still holds: the hub (rare's only neighbor) is next.
        assert_eq!(order[1], hub);
        // And the match set is unaffected: exactly the embeddings using the
        // one hub that feeds "r" (2 ways to place the two "s" spokes on that
        // hub's 4 spokes in order: 4·3 = 12).
        let found = subgraph_isomorphisms(&pat, &tgt, MatchMode::Monomorphism, label_eq);
        assert_eq!(found.len(), 12);
    }

    /// Sorted target-index vectors of an embedding list, for set comparison.
    fn emb_set(embs: &[Embedding]) -> Vec<Vec<usize>> {
        let mut v: Vec<Vec<usize>> = embs
            .iter()
            .map(|e| e.as_slice().iter().map(|t| t.index()).collect())
            .collect();
        v.sort_unstable();
        v
    }

    fn tgt_aut(g: &DiGraph<&'static str, ()>) -> crate::canon::Automorphisms {
        crate::canon::automorphisms(g, |l| l.as_bytes().to_vec())
    }

    #[test]
    fn orbit_mode_reproduces_full_embedding_set() {
        // Three identical parallel s -> m -> t lines: line swaps generate
        // the symmetry, so the pruned search runs from one root only.
        let pat = path_graph(&["s", "m", "t"]);
        let mut tgt = DiGraph::new();
        for _ in 0..3 {
            let ids: Vec<_> = ["s", "m", "t"].iter().map(|&l| tgt.add_node(l)).collect();
            tgt.add_edge(ids[0], ids[1], ());
            tgt.add_edge(ids[1], ids[2], ());
        }
        let aut = tgt_aut(&tgt);
        assert!(!aut.is_trivial());
        let full = subgraph_isomorphisms(&pat, &tgt, MatchMode::Monomorphism, label_eq);
        assert_eq!(full.len(), 3);
        let orbits =
            subgraph_isomorphisms_orbits(&pat, &tgt, MatchMode::Monomorphism, &aut, label_eq);
        assert_eq!(orbits.enumerated, 1);
        assert_eq!(orbits.total(), 3);
        assert_eq!(orbits.orbits.len(), 1);
        assert_eq!(orbits.orbits[0].multiplier(), 3);
        assert_eq!(emb_set(&orbits.into_embeddings()), emb_set(&full));
    }

    #[test]
    fn orbit_mode_matches_full_set_on_asymmetric_roots() {
        // Two identical lines plus one line with a distinct middle label:
        // non-trivial group but not transitive on roots.
        let pat = path_graph(&["s", "m", "t"]);
        let mut tgt = DiGraph::new();
        for mid in ["m", "m", "x"] {
            let ids: Vec<_> = ["s", mid, "t"].iter().map(|&l| tgt.add_node(l)).collect();
            tgt.add_edge(ids[0], ids[1], ());
            tgt.add_edge(ids[1], ids[2], ());
        }
        let aut = tgt_aut(&tgt);
        assert!(!aut.is_trivial());
        let full = subgraph_isomorphisms(&pat, &tgt, MatchMode::Monomorphism, label_eq);
        assert_eq!(full.len(), 2);
        let orbits =
            subgraph_isomorphisms_orbits(&pat, &tgt, MatchMode::Monomorphism, &aut, label_eq);
        assert_eq!(emb_set(&orbits.into_embeddings()), emb_set(&full));
    }

    #[test]
    fn orbit_mode_trivial_group_is_plain_enumeration() {
        let pat = path_graph(&["s", "m"]);
        let tgt = path_graph(&["s", "m"]);
        let aut = crate::canon::Automorphisms::identity(tgt.num_nodes());
        let orbits =
            subgraph_isomorphisms_orbits(&pat, &tgt, MatchMode::Monomorphism, &aut, label_eq);
        assert_eq!(orbits.enumerated, 1);
        assert_eq!(orbits.total(), 1);
        assert_eq!(orbits.orbits[0].multiplier(), 1);
    }

    #[test]
    fn orbit_mode_disconnected_pattern() {
        // Two isolated "a" pattern nodes in three identical "a" targets:
        // full set is 6 injective maps, all in one orbit under S3.
        let mut pat: DiGraph<&str, ()> = DiGraph::new();
        pat.add_node("a");
        pat.add_node("a");
        let mut tgt: DiGraph<&str, ()> = DiGraph::new();
        for _ in 0..3 {
            tgt.add_node("a");
        }
        let aut = tgt_aut(&tgt);
        let full = subgraph_isomorphisms(&pat, &tgt, MatchMode::Monomorphism, label_eq);
        let orbits =
            subgraph_isomorphisms_orbits(&pat, &tgt, MatchMode::Monomorphism, &aut, label_eq);
        assert!(orbits.enumerated < full.len() as u64);
        assert_eq!(emb_set(&orbits.into_embeddings()), emb_set(&full));
    }

    #[test]
    fn orbit_mode_handles_trivial_patterns() {
        let tgt = path_graph(&["a", "a"]);
        let aut = crate::canon::Automorphisms::identity(2);
        let empty: DiGraph<&str, ()> = DiGraph::new();
        let found =
            subgraph_isomorphisms_orbits(&empty, &tgt, MatchMode::Monomorphism, &aut, label_eq);
        assert_eq!(found.total(), 1);
        let big = path_graph(&["a", "a", "a"]);
        let none =
            subgraph_isomorphisms_orbits(&big, &tgt, MatchMode::Monomorphism, &aut, label_eq);
        assert_eq!(none.total(), 0);
        assert_eq!(none.enumerated, 0);
    }

    #[test]
    fn fan_pattern_in_fan_target() {
        // Pattern: hub with 2 spokes. Target: hub with 3 spokes -> 3·2 = 6.
        let mut pat: DiGraph<&str, ()> = DiGraph::new();
        let hub = pat.add_node("h");
        for _ in 0..2 {
            let s = pat.add_node("s");
            pat.add_edge(hub, s, ());
        }
        let mut tgt: DiGraph<&str, ()> = DiGraph::new();
        let thub = tgt.add_node("h");
        for _ in 0..3 {
            let s = tgt.add_node("s");
            tgt.add_edge(thub, s, ());
        }
        let found = subgraph_isomorphisms(&pat, &tgt, MatchMode::Monomorphism, label_eq);
        assert_eq!(found.len(), 6);
    }
}
