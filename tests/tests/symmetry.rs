//! The symmetry layer's two reductions, on four identical parallel RPL
//! lines (a line-permutation group of order 24). Orbit-pruned certificate
//! matching must enumerate at most half of the embeddings it expands into
//! cuts, and the MILP's symmetry-breaking rows must at least halve the
//! branch-and-bound nodes. Neither may change the optimum.
//!
//! The automorphism search behind both is pinned too: its generator lists
//! (the encoder caps the group closure at 64 elements, so their order
//! decides which symmetry rows exist), its step count, and the setup time
//! the exploration's clock charges for it.
//!
//! The `sym.*` and `aut.*` counters live in the process-global metrics
//! registry. Every test in this file runs inside `with_metrics`, which
//! serializes its callers, and no other test shares this binary, so nothing
//! else runs while a test's counters are read.

use contrarc::sym::{encoding_automorphisms, matcher_automorphisms};
use contrarc::{Explorer, ExplorerConfig, Problem, Step, SymmetryConfig};
use contrarc_obs::metrics::with_metrics;
use contrarc_systems::epn::{build as build_epn, EpnConfig};
use contrarc_systems::rpl::{build as build_rpl, build_parallel, RplConfig, RplLines};
use std::time::Instant;

/// What one exploration did, read from its budget and metrics.
struct Run {
    optimum_bits: u64,
    nodes: u64,
    milp_rows: u64,
    embeddings_enumerated: u64,
    embeddings_total: u64,
}

fn run(p: &Problem, symmetry: SymmetryConfig) -> Run {
    let cfg = ExplorerConfig {
        symmetry,
        ..ExplorerConfig::complete()
    };
    let ((optimum, nodes), report) = with_metrics(|| {
        let mut ex = Explorer::new(p, cfg).unwrap();
        let optimum = loop {
            match ex.step().unwrap() {
                Step::Pruned { .. } => {}
                Step::Optimal(arch) => break arch.cost(),
                other => panic!("expected an optimum, got {other:?}"),
            }
        };
        (optimum, ex.budget().nodes_used())
    });
    let counter = |name| report.counter(name).unwrap_or(0);
    Run {
        optimum_bits: optimum.to_bits(),
        nodes,
        milp_rows: counter("sym.milp_rows"),
        embeddings_enumerated: counter("sym.embeddings_enumerated"),
        embeddings_total: counter("sym.embeddings_total"),
    }
}

#[test]
fn symmetry_halves_embeddings_and_nodes_on_four_parallel_lines() {
    // Measured: symmetry off visits 209 nodes; symmetry on visits 97 and
    // enumerates 20 of 80 embeddings in 20 orbits.
    let p = build_parallel(&RplConfig::default(), 4);

    let off = run(&p, SymmetryConfig::off());
    assert_eq!(
        off.milp_rows, 0,
        "symmetry off added symmetry-breaking rows"
    );
    assert_eq!(
        off.embeddings_enumerated, 0,
        "symmetry off took the orbit-pruned matcher path"
    );

    let on = run(&p, SymmetryConfig::default());
    assert_eq!(
        on.optimum_bits, off.optimum_bits,
        "symmetry changed the optimum"
    );

    assert!(
        on.embeddings_total >= 2 * on.embeddings_enumerated.max(1),
        "expected >= 2x fewer embeddings enumerated: {} of {}",
        on.embeddings_enumerated,
        on.embeddings_total
    );
    assert!(
        off.nodes >= 2 * on.nodes.max(1),
        "expected >= 2x fewer B&B nodes: {} off vs {} on",
        off.nodes,
        on.nodes
    );
}

/// The permutation of `p`'s template nodes that swaps parallel lines `a`
/// and `b` (node names carry their line as `P<line>`) and fixes the rest.
fn line_swap(p: &Problem, a: usize, b: usize) -> Vec<usize> {
    let t = &p.template;
    let names: Vec<&str> = t.node_ids().map(|n| t.node(n).name.as_str()).collect();
    let index_of = |name: &str| names.iter().position(|&m| m == name).unwrap();
    let (pa, pb) = (format!("P{a}"), format!("P{b}"));
    names
        .iter()
        .enumerate()
        .map(|(v, name)| {
            if name.contains(&pa) {
                index_of(&name.replace(&pa, &pb))
            } else if name.contains(&pb) {
                index_of(&name.replace(&pb, &pa))
            } else {
                v
            }
        })
        .collect()
}

#[test]
fn symmetry_generators_on_six_lines_are_the_adjacent_line_swaps() {
    let p = build_parallel(&RplConfig::default(), 6);
    let ((matcher, encoding), _) =
        with_metrics(|| (matcher_automorphisms(&p), encoding_automorphisms(&p)));
    let expect: Vec<Vec<usize>> = [(4, 5), (3, 4), (2, 3), (1, 2), (0, 1)]
        .iter()
        .map(|&(a, b)| line_swap(&p, a, b))
        .collect();
    assert_eq!(matcher.generators(), expect.as_slice(), "matcher group");
    assert_eq!(encoding.generators(), expect.as_slice(), "encoding group");
    assert_eq!(matcher.num_orbits(), 7);
    assert_eq!(encoding.num_orbits(), 7);
}

#[test]
fn symmetry_groups_of_large_templates_are_found() {
    // (4!)^5 automorphisms on EPN (4,0,0), and the two lines of
    // `RplConfig::symmetric(3)` are interchangeable too: a search that
    // visits one leaf per group element does not finish on either.
    let epn = build_epn(&EpnConfig::table2(4, 0, 0));
    let rpl = build_rpl(&RplConfig::symmetric(3), RplLines::Both);
    for (name, p, nodes, orbits, generators) in [("epn", &epn, 20, 5, 15), ("rpl", &rpl, 34, 7, 21)]
    {
        let ((matcher, encoding), _) =
            with_metrics(|| (matcher_automorphisms(p), encoding_automorphisms(p)));
        for aut in [matcher, encoding] {
            assert_eq!(aut.num_nodes(), nodes, "{name}");
            assert_eq!(aut.num_orbits(), orbits, "{name}");
            assert_eq!(aut.generators().len(), generators, "{name}");
        }
    }
}

#[test]
fn symmetry_search_on_six_lines_takes_at_most_30_steps() {
    // The first-path search takes 20 individualize-and-refine steps here;
    // a search that visits all 720 leaves takes 1,236.
    let p = build_parallel(&RplConfig::default(), 6);
    let (aut, report) = with_metrics(|| matcher_automorphisms(&p));
    assert_eq!(aut.generators().len(), 5);
    let steps = report.counter("aut.search_nodes").unwrap_or(0);
    assert!(
        (1..=30).contains(&steps),
        "expected at most 30 search steps, took {steps}"
    );
}

#[test]
fn symmetry_setup_counts_toward_exploration_time() {
    // The clock starts at the top of `Explorer::new`, before both encodings
    // and the automorphism search, so the setup shows in `total_time`.
    let p = build_parallel(&RplConfig::default(), 6);
    let ((total, wall), _) = with_metrics(|| {
        let t0 = Instant::now();
        let ex = Explorer::new(&p, ExplorerConfig::complete()).unwrap();
        let wall = t0.elapsed().as_secs_f64();
        (ex.stats().total_time, wall)
    });
    assert!(
        total >= 0.5 * wall,
        "total_time {total} s right after Explorer::new took {wall} s"
    );
}
