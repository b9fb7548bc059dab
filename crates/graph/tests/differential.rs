//! Differential tests of both VF2 enumerators against a brute-force oracle.
//!
//! The oracle tries every injective, label-equal map of a pattern of at most
//! 4 nodes into a target of at most 7 and keeps those that preserve every
//! pattern edge. `subgraph_isomorphisms` and `subgraph_isomorphisms_orbits`
//! (under the target's automorphism group) must each return exactly that
//! set, with no embedding twice.

use contrarc_graph::iso::{subgraph_isomorphisms, subgraph_isomorphisms_orbits, Embedding};
use contrarc_graph::{automorphisms, DiGraph, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeSet;

/// Random simple digraph (no self-loops, no parallel edges).
fn random_graph(rng: &mut StdRng, n: usize, p: f64, num_labels: u8) -> DiGraph<u8, ()> {
    let mut g = DiGraph::new();
    let ids: Vec<NodeId> = (0..n)
        .map(|_| g.add_node(rng.random_range(0..num_labels)))
        .collect();
    for &a in &ids {
        for &b in &ids {
            if a != b && rng.random_bool(p) {
                g.add_edge(a, b, ());
            }
        }
    }
    g
}

/// A pattern that embeds in `target` at least once: up to 4 distinct target
/// nodes with their labels, keeping each target edge among them with
/// probability 0.7, so many of its embeddings are not induced.
fn sub_pattern(rng: &mut StdRng, target: &DiGraph<u8, ()>) -> DiGraph<u8, ()> {
    let k = rng.random_range(1..=target.num_nodes().min(4));
    let mut chosen: Vec<NodeId> = Vec::with_capacity(k);
    while chosen.len() < k {
        let t = NodeId::from_index(rng.random_range(0..target.num_nodes()));
        if !chosen.contains(&t) {
            chosen.push(t);
        }
    }
    let mut g = DiGraph::new();
    let ids: Vec<NodeId> = chosen
        .iter()
        .map(|&t| g.add_node(*target.node_weight(t)))
        .collect();
    for (i, &a) in chosen.iter().enumerate() {
        for (j, &b) in chosen.iter().enumerate() {
            if target.contains_edge(a, b) && rng.random_bool(0.7) {
                g.add_edge(ids[i], ids[j], ());
            }
        }
    }
    g
}

/// `copies` disjoint copies of `g`: swapping copies is an automorphism, so
/// the orbit-pruned search really prunes.
fn disjoint_copies(g: &DiGraph<u8, ()>, copies: usize) -> DiGraph<u8, ()> {
    let mut out = DiGraph::new();
    for _ in 0..copies {
        let ids: Vec<NodeId> = g.nodes().map(|(_, &l)| out.add_node(l)).collect();
        for e in g.edges() {
            out.add_edge(ids[e.src.index()], ids[e.dst.index()], ());
        }
    }
    out
}

/// Every injective, label-equal map of `pattern` into `target` that
/// preserves every pattern edge, as target-index vectors.
fn brute_force(pattern: &DiGraph<u8, ()>, target: &DiGraph<u8, ()>) -> BTreeSet<Vec<usize>> {
    fn assign(
        pattern: &DiGraph<u8, ()>,
        target: &DiGraph<u8, ()>,
        map: &mut Vec<usize>,
        out: &mut BTreeSet<Vec<usize>>,
    ) {
        let p = map.len();
        if p == pattern.num_nodes() {
            let preserved = pattern.edges().all(|e| {
                target.contains_edge(
                    NodeId::from_index(map[e.src.index()]),
                    NodeId::from_index(map[e.dst.index()]),
                )
            });
            if preserved {
                out.insert(map.clone());
            }
            return;
        }
        for (t, label) in target.nodes() {
            if !map.contains(&t.index()) && label == pattern.node_weight(NodeId::from_index(p)) {
                map.push(t.index());
                assign(pattern, target, map, out);
                map.pop();
            }
        }
    }
    let mut out = BTreeSet::new();
    assign(pattern, target, &mut Vec::new(), &mut out);
    out
}

/// The embeddings as target-index vectors; panics on a repeated embedding.
fn as_set(embeddings: &[Embedding], what: &str) -> BTreeSet<Vec<usize>> {
    let mut set = BTreeSet::new();
    for e in embeddings {
        let key: Vec<usize> = e.as_slice().iter().map(|t| t.index()).collect();
        assert!(set.insert(key), "{what}: embedding {e} reported twice");
    }
    set
}

/// Check both enumerators against the oracle; returns the orbit-pruned
/// search's enumerated and total embedding counts.
fn check(pattern: &DiGraph<u8, ()>, target: &DiGraph<u8, ()>, case: &str) -> (u64, usize) {
    let want = brute_force(pattern, target);
    let plain = subgraph_isomorphisms(pattern, target, |a, b| a == b);
    assert_eq!(
        as_set(&plain, case),
        want,
        "{case}: plain enumerator\npattern {pattern}target {target}"
    );
    let aut = automorphisms(target, |l| vec![*l]);
    let orbits = subgraph_isomorphisms_orbits(pattern, target, &aut, |a, b| a == b);
    let counts = (orbits.enumerated, orbits.total());
    assert_eq!(
        as_set(&orbits.into_embeddings(), case),
        want,
        "{case}: orbit-pruned enumerator\npattern {pattern}target {target}"
    );
    counts
}

/// A random pattern, or one cut from the target, against `target`.
fn random_case(rng: &mut StdRng, target: &DiGraph<u8, ()>, case: &str) -> (u64, usize) {
    let pattern = if rng.random_bool(0.5) {
        let np = rng.random_range(1..=4);
        random_graph(rng, np, 0.4, 2)
    } else {
        sub_pattern(rng, target)
    };
    check(&pattern, target, case)
}

#[test]
fn both_enumerators_match_brute_force_on_random_pairs() {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    for trial in 0..400 {
        let nt = rng.random_range(1..=7);
        let target = random_graph(&mut rng, nt, 0.35, 2);
        random_case(&mut rng, &target, &format!("random pair {trial}"));
    }
}

#[test]
fn orbit_enumerator_matches_brute_force_on_symmetric_targets() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let (mut enumerated, mut total) = (0, 0);
    for trial in 0..200 {
        let copies = rng.random_range(2..=3);
        let base_nodes = rng.random_range(1..=7 / copies);
        let base = random_graph(&mut rng, base_nodes, 0.5, 2);
        let target = disjoint_copies(&base, copies);
        assert!(!automorphisms(&target, |l| vec![*l]).is_trivial());
        let (e, t) = random_case(&mut rng, &target, &format!("symmetric target {trial}"));
        enumerated += e;
        total += t;
    }
    assert!(
        enumerated < total as u64,
        "orbit pruning never pruned: {enumerated} of {total} embeddings enumerated"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    /// The same check on proptest-drawn seeds, over plain and symmetric
    /// targets alike.
    #[test]
    fn enumerators_match_brute_force_on_drawn_seeds(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let target = if rng.random_bool(0.5) {
            let nt = rng.random_range(1..=7);
            random_graph(&mut rng, nt, 0.35, 2)
        } else {
            let base_nodes = rng.random_range(1..=3);
            let base = random_graph(&mut rng, base_nodes, 0.5, 2);
            disjoint_copies(&base, 2)
        };
        random_case(&mut rng, &target, &format!("seed {seed}"));
    }
}
