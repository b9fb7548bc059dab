//! Property tests of the path enumeration and the acyclicity check on
//! random DAGs.

use contrarc_graph::paths::all_simple_paths;
use contrarc_graph::topo::is_acyclic;
use contrarc_graph::{DiGraph, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Random layered DAG (edges only go to later layers → acyclic by
/// construction).
fn random_dag(seed: u64) -> DiGraph<usize, ()> {
    let mut rng = StdRng::seed_from_u64(seed);
    let layers = rng.random_range(2..=4usize);
    let width = rng.random_range(1..=3usize);
    let mut g = DiGraph::new();
    let mut by_layer: Vec<Vec<NodeId>> = Vec::new();
    for l in 0..layers {
        by_layer.push((0..width).map(|_| g.add_node(l)).collect());
    }
    for l in 0..layers - 1 {
        for &a in &by_layer[l] {
            for &b in &by_layer[l + 1] {
                if rng.random_bool(0.6) {
                    g.add_edge(a, b, ());
                }
            }
        }
    }
    g
}

/// Count simple paths by naive recursion (independent reference).
fn count_paths_naive(
    g: &DiGraph<usize, ()>,
    from: NodeId,
    to: NodeId,
    visited: &mut Vec<bool>,
) -> usize {
    if from == to {
        return 1;
    }
    visited[from.index()] = true;
    let mut total = 0;
    for s in g.successors(from) {
        if !visited[s.index()] {
            total += count_paths_naive(g, s, to, visited);
        }
    }
    visited[from.index()] = false;
    total
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    #[test]
    fn path_counts_match_naive_reference(seed in 0u64..4000) {
        let g = random_dag(seed);
        let nodes: Vec<NodeId> = g.node_ids().collect();
        let from = nodes[0];
        let to = *nodes.last().unwrap();
        let expected = count_paths_naive(&g, from, to, &mut vec![false; g.num_nodes()]);
        let got = all_simple_paths(&g, &[from], &[to], 1_000_000).len();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn every_enumerated_path_is_a_real_path(seed in 0u64..2000) {
        let g = random_dag(seed.wrapping_add(77));
        let sources: Vec<NodeId> = g.node_ids().filter(|&v| g.in_degree(v) == 0).collect();
        let sinks: Vec<NodeId> = g.node_ids().filter(|&v| g.out_degree(v) == 0).collect();
        for path in all_simple_paths(&g, &sources, &sinks, 100_000) {
            prop_assert!(sources.contains(&path[0]));
            prop_assert!(sinks.contains(path.last().unwrap()));
            for w in path.windows(2) {
                prop_assert!(g.contains_edge(w[0], w[1]));
            }
            // Simple: no repeated nodes.
            let mut sorted = path.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), path.len());
        }
    }

    #[test]
    fn layered_dags_are_acyclic(seed in 0u64..2000) {
        let g = random_dag(seed.wrapping_mul(3));
        prop_assert!(is_acyclic(&g));
    }
}
