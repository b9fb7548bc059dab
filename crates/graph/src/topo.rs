//! Cycle detection.
//!
//! Architecture templates are expected to be DAGs; [`is_acyclic`] lets the
//! modeling layer validate that assumption.

use crate::digraph::{DiGraph, NodeId};

/// Whether the graph contains no directed cycle (a self-loop counts as one).
///
/// Kahn's algorithm: repeatedly remove a node with no remaining in-edges;
/// the graph is acyclic exactly when every node gets removed.
///
/// ```rust
/// use contrarc_graph::{DiGraph, topo::is_acyclic};
/// let mut g = DiGraph::new();
/// let a = g.add_node(());
/// let b = g.add_node(());
/// let c = g.add_node(());
/// g.add_edge(a, b, ());
/// g.add_edge(b, c, ());
/// assert!(is_acyclic(&g));
/// g.add_edge(c, a, ());
/// assert!(!is_acyclic(&g));
/// ```
#[must_use]
pub fn is_acyclic<N, E>(graph: &DiGraph<N, E>) -> bool {
    let n = graph.num_nodes();
    let mut indegree: Vec<usize> = (0..n)
        .map(|i| graph.in_degree(NodeId::from_index(i)))
        .collect();
    let mut queue: Vec<NodeId> = (0..n)
        .map(NodeId::from_index)
        .filter(|&v| indegree[v.index()] == 0)
        .collect();
    let mut removed = 0;
    while let Some(v) = queue.pop() {
        removed += 1;
        for s in graph.successors(v) {
            indegree[s.index()] -= 1;
            if indegree[s.index()] == 0 {
                queue.push(s);
            }
        }
    }
    removed == n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_cycles() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(b, c, ());
        assert!(is_acyclic(&g));
        g.add_edge(c, a, ());
        assert!(!is_acyclic(&g));
    }

    #[test]
    fn empty_and_isolated() {
        let g: DiGraph<(), ()> = DiGraph::new();
        assert!(is_acyclic(&g));
        let mut g2: DiGraph<(), ()> = DiGraph::new();
        g2.add_node(());
        g2.add_node(());
        assert!(is_acyclic(&g2));
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        g.add_edge(a, a, ());
        assert!(!is_acyclic(&g));
    }
}
