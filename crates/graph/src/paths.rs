//! Simple-path enumeration between node sets.
//!
//! Algorithm 1 of the paper composes contracts *along every source→sink
//! path* of a candidate architecture; this module provides that enumeration.

use crate::digraph::{DiGraph, NodeId};

/// Enumerate all simple paths (no repeated node) from any node in `sources`
/// to any node in `sinks`, in depth-first order.
///
/// A node that is both a source and a sink yields the single-node path.
/// `max_paths` caps the enumeration as a safety valve against pathological
/// graphs; the cap is generous enough never to trigger on the paper's
/// case-study sizes.
///
/// ```rust
/// use contrarc_graph::{DiGraph, paths::all_simple_paths};
/// let mut g = DiGraph::new();
/// let s = g.add_node(());
/// let a = g.add_node(());
/// let b = g.add_node(());
/// let t = g.add_node(());
/// g.add_edge(s, a, ());
/// g.add_edge(s, b, ());
/// g.add_edge(a, t, ());
/// g.add_edge(b, t, ());
/// let paths = all_simple_paths(&g, &[s], &[t], 100);
/// assert_eq!(paths.len(), 2);
/// ```
#[must_use]
pub fn all_simple_paths<N, E>(
    graph: &DiGraph<N, E>,
    sources: &[NodeId],
    sinks: &[NodeId],
    max_paths: usize,
) -> Vec<Vec<NodeId>> {
    let mut is_sink = vec![false; graph.num_nodes()];
    for &t in sinks {
        is_sink[t.index()] = true;
    }
    let mut out = Vec::new();
    let mut on_path = vec![false; graph.num_nodes()];
    let mut path = Vec::new();
    // Deduplicate sources while preserving order.
    let mut seen_src = vec![false; graph.num_nodes()];
    for &s in sources {
        if seen_src[s.index()] {
            continue;
        }
        seen_src[s.index()] = true;
        dfs(
            graph,
            s,
            &is_sink,
            &mut on_path,
            &mut path,
            &mut out,
            max_paths,
        );
        if out.len() >= max_paths {
            break;
        }
    }
    out
}

fn dfs<N, E>(
    graph: &DiGraph<N, E>,
    node: NodeId,
    is_sink: &[bool],
    on_path: &mut [bool],
    path: &mut Vec<NodeId>,
    out: &mut Vec<Vec<NodeId>>,
    max_paths: usize,
) {
    if out.len() >= max_paths {
        return;
    }
    on_path[node.index()] = true;
    path.push(node);
    if is_sink[node.index()] {
        out.push(path.clone());
    }
    for next in graph.successors(node) {
        if !on_path[next.index()] {
            dfs(graph, next, is_sink, on_path, path, out, max_paths);
        }
    }
    path.pop();
    on_path[node.index()] = false;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two parallel production lines sharing no nodes, as in the RPL study.
    fn two_lines() -> (DiGraph<&'static str, ()>, Vec<NodeId>) {
        let mut g = DiGraph::new();
        let ids: Vec<_> = ["s1", "m1", "t1", "s2", "m2", "t2"]
            .iter()
            .map(|&w| g.add_node(w))
            .collect();
        g.add_edge(ids[0], ids[1], ());
        g.add_edge(ids[1], ids[2], ());
        g.add_edge(ids[3], ids[4], ());
        g.add_edge(ids[4], ids[5], ());
        (g, ids)
    }

    #[test]
    fn disjoint_lines_give_one_path_each() {
        let (g, ids) = two_lines();
        let paths = all_simple_paths(&g, &[ids[0], ids[3]], &[ids[2], ids[5]], 100);
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0], vec![ids[0], ids[1], ids[2]]);
        assert_eq!(paths[1], vec![ids[3], ids[4], ids[5]]);
    }

    #[test]
    fn diamond_counts_both_branches() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let s = g.add_node(());
        let a = g.add_node(());
        let b = g.add_node(());
        let t = g.add_node(());
        g.add_edge(s, a, ());
        g.add_edge(s, b, ());
        g.add_edge(a, t, ());
        g.add_edge(b, t, ());
        let paths = all_simple_paths(&g, &[s], &[t], 100);
        assert_eq!(paths.len(), 2);
    }

    #[test]
    fn cycles_do_not_loop_forever() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let s = g.add_node(());
        let a = g.add_node(());
        let t = g.add_node(());
        g.add_edge(s, a, ());
        g.add_edge(a, s, ()); // cycle back
        g.add_edge(a, t, ());
        let paths = all_simple_paths(&g, &[s], &[t], 100);
        assert_eq!(paths, vec![vec![s, a, t]]);
    }

    #[test]
    fn source_equals_sink() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let s = g.add_node(());
        let paths = all_simple_paths(&g, &[s], &[s], 100);
        assert_eq!(paths, vec![vec![s]]);
    }

    #[test]
    fn max_paths_caps_enumeration() {
        // Complete bipartite-ish expander: 2 * 3 * 2 = several paths.
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let s = g.add_node(());
        let mids: Vec<_> = (0..3).map(|_| g.add_node(())).collect();
        let t = g.add_node(());
        for &m in &mids {
            g.add_edge(s, m, ());
            g.add_edge(m, t, ());
        }
        let capped = all_simple_paths(&g, &[s], &[t], 2);
        assert_eq!(capped.len(), 2);
        let full = all_simple_paths(&g, &[s], &[t], 100);
        assert_eq!(full.len(), 3);
    }

    #[test]
    fn duplicate_sources_not_double_counted() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let s = g.add_node(());
        let t = g.add_node(());
        g.add_edge(s, t, ());
        let paths = all_simple_paths(&g, &[s, s], &[t], 100);
        assert_eq!(paths.len(), 1);
    }

    #[test]
    fn no_path_when_disconnected() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let s = g.add_node(());
        let t = g.add_node(());
        let paths = all_simple_paths(&g, &[s], &[t], 100);
        assert!(paths.is_empty());
    }
}
