//! Arena-style directed graph with typed node and edge weights.

use std::fmt;

/// Opaque handle to a node of a [`DiGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Dense index of this node (insertion order, starting at zero).
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuild a `NodeId` from a dense index. Only valid for the graph that
    /// issued it.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index overflow"))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Opaque handle to an edge of a [`DiGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub(crate) u32);

impl EdgeId {
    /// Dense index of this edge (insertion order, starting at zero).
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuild an `EdgeId` from a dense index. Only valid for the graph that
    /// issued it.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        EdgeId(u32::try_from(index).expect("edge index overflow"))
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

#[derive(Debug, Clone, PartialEq)]
struct EdgeData<E> {
    src: NodeId,
    dst: NodeId,
    weight: E,
}

// Manual impls: `EdgeRef` only holds a reference to `E`, so it is copyable
// regardless of whether `E` is (derive would add a spurious `E: Copy` bound).
impl<E> Clone for EdgeRef<'_, E> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<E> Copy for EdgeRef<'_, E> {}

/// A borrowed view of one edge: `(id, source, target, &weight)`.
#[derive(Debug, PartialEq)]
pub struct EdgeRef<'a, E> {
    /// Edge handle.
    pub id: EdgeId,
    /// Source node.
    pub src: NodeId,
    /// Target node.
    pub dst: NodeId,
    /// Edge weight.
    pub weight: &'a E,
}

/// A directed multigraph with node weights `N` and edge weights `E`.
///
/// Nodes and edges are never removed (the exploration workloads only build
/// graphs), which keeps ids stable and the representation compact.
///
/// ```rust
/// use contrarc_graph::DiGraph;
/// let mut g = DiGraph::new();
/// let a = g.add_node("src");
/// let b = g.add_node("sink");
/// let e = g.add_edge(a, b, 3.5);
/// assert_eq!(g.edge_endpoints(e), (a, b));
/// assert_eq!(*g.edge_weight(e), 3.5);
/// assert_eq!(g.out_degree(a), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DiGraph<N, E> {
    nodes: Vec<N>,
    edges: Vec<EdgeData<E>>,
    out_adj: Vec<Vec<EdgeId>>,
    in_adj: Vec<Vec<EdgeId>>,
}

impl<N, E> Default for DiGraph<N, E> {
    fn default() -> Self {
        DiGraph {
            nodes: Vec::new(),
            edges: Vec::new(),
            out_adj: Vec::new(),
            in_adj: Vec::new(),
        }
    }
}

impl<N, E> DiGraph<N, E> {
    /// Create an empty graph.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node with the given weight and return its handle.
    pub fn add_node(&mut self, weight: N) -> NodeId {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("too many nodes"));
        self.nodes.push(weight);
        self.out_adj.push(Vec::new());
        self.in_adj.push(Vec::new());
        id
    }

    /// Add a directed edge `src → dst` and return its handle.
    ///
    /// Parallel edges are permitted; callers that need simple graphs should
    /// check [`DiGraph::find_edge`] first.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint does not belong to this graph.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, weight: E) -> EdgeId {
        assert!(src.index() < self.nodes.len(), "source node out of range");
        assert!(dst.index() < self.nodes.len(), "target node out of range");
        let id = EdgeId(u32::try_from(self.edges.len()).expect("too many edges"));
        self.edges.push(EdgeData { src, dst, weight });
        self.out_adj[src.index()].push(id);
        self.in_adj[dst.index()].push(id);
        id
    }

    /// Number of nodes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Weight of a node.
    ///
    /// # Panics
    ///
    /// Panics if `n` does not belong to this graph.
    #[must_use]
    pub fn node_weight(&self, n: NodeId) -> &N {
        &self.nodes[n.index()]
    }

    /// Mutable weight of a node.
    ///
    /// # Panics
    ///
    /// Panics if `n` does not belong to this graph.
    pub fn node_weight_mut(&mut self, n: NodeId) -> &mut N {
        &mut self.nodes[n.index()]
    }

    /// Weight of an edge.
    ///
    /// # Panics
    ///
    /// Panics if `e` does not belong to this graph.
    #[must_use]
    pub fn edge_weight(&self, e: EdgeId) -> &E {
        &self.edges[e.index()].weight
    }

    /// `(source, target)` endpoints of an edge.
    ///
    /// # Panics
    ///
    /// Panics if `e` does not belong to this graph.
    #[must_use]
    pub fn edge_endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        let d = &self.edges[e.index()];
        (d.src, d.dst)
    }

    /// Iterate over all node handles in insertion order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId::from_index)
    }

    /// Iterate over `(id, &weight)` for all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &N)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, w)| (NodeId::from_index(i), w))
    }

    /// Iterate over all edges as [`EdgeRef`]s.
    pub fn edges(&self) -> impl Iterator<Item = EdgeRef<'_, E>> {
        self.edges.iter().enumerate().map(|(i, d)| EdgeRef {
            id: EdgeId::from_index(i),
            src: d.src,
            dst: d.dst,
            weight: &d.weight,
        })
    }

    /// Outgoing edges of `n`.
    pub fn out_edges(&self, n: NodeId) -> impl Iterator<Item = EdgeRef<'_, E>> {
        self.out_adj[n.index()].iter().map(move |&e| {
            let d = &self.edges[e.index()];
            EdgeRef {
                id: e,
                src: d.src,
                dst: d.dst,
                weight: &d.weight,
            }
        })
    }

    /// Incoming edges of `n`.
    pub fn in_edges(&self, n: NodeId) -> impl Iterator<Item = EdgeRef<'_, E>> {
        self.in_adj[n.index()].iter().map(move |&e| {
            let d = &self.edges[e.index()];
            EdgeRef {
                id: e,
                src: d.src,
                dst: d.dst,
                weight: &d.weight,
            }
        })
    }

    /// Successor nodes of `n` (one entry per outgoing edge).
    pub fn successors(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_edges(n).map(|e| e.dst)
    }

    /// Predecessor nodes of `n` (one entry per incoming edge).
    pub fn predecessors(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.in_edges(n).map(|e| e.src)
    }

    /// Out-degree of `n`.
    #[must_use]
    pub fn out_degree(&self, n: NodeId) -> usize {
        self.out_adj[n.index()].len()
    }

    /// In-degree of `n`.
    #[must_use]
    pub fn in_degree(&self, n: NodeId) -> usize {
        self.in_adj[n.index()].len()
    }

    /// First edge `src → dst`, if one exists.
    #[must_use]
    pub fn find_edge(&self, src: NodeId, dst: NodeId) -> Option<EdgeId> {
        self.out_adj[src.index()]
            .iter()
            .copied()
            .find(|&e| self.edges[e.index()].dst == dst)
    }

    /// Whether an edge `src → dst` exists.
    #[must_use]
    pub fn contains_edge(&self, src: NodeId, dst: NodeId) -> bool {
        self.find_edge(src, dst).is_some()
    }

    /// Build the subgraph induced by `keep` (all kept nodes plus every edge
    /// whose endpoints are both kept), cloning weights. Returns the subgraph
    /// and the mapping `old NodeId → new NodeId` in `keep` order.
    #[must_use]
    pub fn induced_subgraph(&self, keep: &[NodeId]) -> (DiGraph<N, E>, Vec<(NodeId, NodeId)>)
    where
        N: Clone,
        E: Clone,
    {
        let mut sub = DiGraph::new();
        let mut remap = vec![None; self.nodes.len()];
        let mut mapping = Vec::with_capacity(keep.len());
        for &n in keep {
            let new = sub.add_node(self.nodes[n.index()].clone());
            remap[n.index()] = Some(new);
            mapping.push((n, new));
        }
        for d in &self.edges {
            if let (Some(s), Some(t)) = (remap[d.src.index()], remap[d.dst.index()]) {
                sub.add_edge(s, t, d.weight.clone());
            }
        }
        (sub, mapping)
    }
}

impl<N: fmt::Debug, E> fmt::Display for DiGraph<N, E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "digraph ({} nodes, {} edges):",
            self.num_nodes(),
            self.num_edges()
        )?;
        for (id, w) in self.nodes() {
            writeln!(f, "  {id}: {w:?}")?;
        }
        for e in self.edges() {
            writeln!(f, "  {} -> {}", e.src, e.dst)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (DiGraph<&'static str, u32>, [NodeId; 4]) {
        let mut g = DiGraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let d = g.add_node("d");
        g.add_edge(a, b, 1);
        g.add_edge(a, c, 2);
        g.add_edge(b, d, 3);
        g.add_edge(c, d, 4);
        (g, [a, b, c, d])
    }

    #[test]
    fn build_and_degrees() {
        let (g, [a, b, _c, d]) = diamond();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.in_degree(d), 2);
        assert_eq!(g.out_degree(d), 0);
        assert_eq!(g.in_degree(b), 1);
    }

    #[test]
    fn adjacency_iterators() {
        let (g, [a, b, c, d]) = diamond();
        let succs: Vec<_> = g.successors(a).collect();
        assert_eq!(succs, vec![b, c]);
        let preds: Vec<_> = g.predecessors(d).collect();
        assert_eq!(preds, vec![b, c]);
        assert_eq!(g.out_edges(a).count(), 2);
        assert_eq!(g.in_edges(d).count(), 2);
    }

    #[test]
    fn find_and_contains() {
        let (g, [a, b, _c, d]) = diamond();
        assert!(g.contains_edge(a, b));
        assert!(!g.contains_edge(b, a));
        assert!(!g.contains_edge(a, d));
        let e = g.find_edge(a, b).unwrap();
        assert_eq!(g.edge_endpoints(e), (a, b));
        assert_eq!(*g.edge_weight(e), 1);
    }

    #[test]
    fn parallel_edges_allowed() {
        let mut g: DiGraph<(), u8> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 1);
        g.add_edge(a, b, 2);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.out_degree(a), 2);
    }

    #[test]
    fn node_weight_mutation() {
        let mut g: DiGraph<u32, ()> = DiGraph::new();
        let n = g.add_node(1);
        *g.node_weight_mut(n) = 7;
        assert_eq!(*g.node_weight(n), 7);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges() {
        let (g, [a, b, _c, d]) = diamond();
        let (sub, mapping) = g.induced_subgraph(&[a, b, d]);
        assert_eq!(sub.num_nodes(), 3);
        // Edges a->b and b->d survive; a->c and c->d drop.
        assert_eq!(sub.num_edges(), 2);
        assert_eq!(mapping.len(), 3);
        let (old, new) = mapping[0];
        assert_eq!(old, a);
        assert_eq!(*sub.node_weight(new), "a");
    }

    #[test]
    fn ids_roundtrip_and_display() {
        let n = NodeId::from_index(3);
        assert_eq!(n.index(), 3);
        assert_eq!(n.to_string(), "n3");
        let e = EdgeId::from_index(5);
        assert_eq!(e.index(), 5);
        assert_eq!(e.to_string(), "e5");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn edge_endpoint_validation() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let ghost = NodeId::from_index(9);
        g.add_edge(a, ghost, ());
    }

    #[test]
    fn display_renders() {
        let (g, _) = diamond();
        let text = g.to_string();
        assert!(text.contains("4 nodes"));
        assert!(text.contains("n0 -> n1"));
    }
}
