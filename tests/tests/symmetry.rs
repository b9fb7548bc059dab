//! The symmetry layer's two reductions, on four identical parallel RPL
//! lines (a line-permutation group of order 24). Orbit-pruned certificate
//! matching must enumerate at most half of the embeddings it expands into
//! cuts, and the MILP's symmetry-breaking rows must at least halve the
//! branch-and-bound nodes. Neither may change the optimum.
//!
//! The `sym.*` counters live in the process-global metrics registry. Every
//! exploration in this file runs inside `with_metrics`, which serializes its
//! callers, and no other test shares this binary, so nothing else explores
//! while a run's counters are read.

use contrarc::{Explorer, ExplorerConfig, Problem, Step, SymmetryConfig};
use contrarc_obs::metrics::with_metrics;
use contrarc_systems::rpl::{build_parallel, RplConfig};

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
