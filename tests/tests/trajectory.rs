//! Pinned exploration trajectories. The LP engine's arithmetic decides every
//! pivot, branch-and-bound node and candidate of an exploration, so a change
//! that must keep that arithmetic bit for bit (a faster factorization, for
//! one) must leave these counters exactly where they are. Each case runs the
//! complete mode twice: with `warm_start: false`, the two-phase cold solve
//! that is the reference arm, and with the default warm starts, where every
//! branch-and-bound child starts from its parent's basis. Warm starts move
//! only the pivots and nodes; the optimum, iterations and cuts are the cold
//! ones. Each cold six-line run takes about 0.8 s in the test profile.

use contrarc::{Explorer, ExplorerConfig, Problem, Step};
use contrarc_systems::epn::{self, EpnConfig};
use contrarc_systems::rpl::{self, RplConfig, RplLines};

#[derive(Debug, PartialEq)]
struct Trajectory {
    optimum_bits: u64,
    iterations: usize,
    cuts: usize,
    pivots: u64,
    nodes: u64,
}

/// Solve every LP from the slack basis.
const COLD: bool = false;
/// The default: warm-start every branch-and-bound node.
const WARM: bool = true;

fn trajectory(p: &Problem, warm_start: bool) -> Trajectory {
    let mut cfg = ExplorerConfig::complete();
    cfg.solve_options.warm_start = warm_start;
    trajectory_with(p, cfg)
}

fn trajectory_with(p: &Problem, cfg: ExplorerConfig) -> Trajectory {
    let mut ex = Explorer::new(p, cfg).unwrap();
    let optimum = loop {
        match ex.step().unwrap() {
            Step::Pruned { .. } => {}
            Step::Optimal(arch) => break arch.cost(),
            other => panic!("expected an optimum, got {other:?}"),
        }
    };
    Trajectory {
        optimum_bits: optimum.to_bits(),
        iterations: ex.stats().iterations,
        cuts: ex.stats().cuts_added,
        pivots: ex.budget().pivots_used(),
        nodes: ex.budget().nodes_used(),
    }
}

fn expected(optimum: f64, iterations: usize, cuts: usize, pivots: u64, nodes: u64) -> Trajectory {
    Trajectory {
        optimum_bits: optimum.to_bits(),
        iterations,
        cuts,
        pivots,
        nodes,
    }
}

#[test]
fn epn_default_trajectory_is_pinned() {
    let p = epn::build(&EpnConfig::default());
    assert_eq!(trajectory(&p, COLD), expected(42.0, 43, 45, 4_920, 282));
    assert_eq!(trajectory(&p, WARM), expected(42.0, 43, 45, 1_067, 290));
}

#[test]
fn rpl_both_lines_trajectory_is_pinned() {
    let p = rpl::build(&RplConfig::default(), RplLines::Both);
    assert_eq!(trajectory(&p, COLD), expected(32.0, 7, 24, 1_048, 49));
    assert_eq!(trajectory(&p, WARM), expected(32.0, 7, 24, 205, 51));
}

#[test]
fn rpl_three_parallel_lines_trajectory_is_pinned() {
    let p = rpl::build_parallel(&RplConfig::default(), 3);
    assert_eq!(trajectory(&p, COLD), expected(48.0, 7, 54, 2_263, 62));
    assert_eq!(trajectory(&p, WARM), expected(48.0, 7, 54, 269, 64));
}

#[test]
fn rpl_six_parallel_lines_trajectory_is_pinned() {
    let p = rpl::build_parallel(&RplConfig::default(), 6);
    assert_eq!(trajectory(&p, COLD), expected(96.0, 7, 216, 19_351, 199));
    assert_eq!(trajectory(&p, WARM), expected(96.0, 7, 216, 711, 201));
    // The benchmark's `sym-dive-2t` configuration. `threads` is ignored: the
    // exploration runs on one thread whatever it says.
    let two_threads = ExplorerConfig {
        threads: 2,
        ..ExplorerConfig::complete()
    };
    assert_eq!(
        trajectory_with(&p, two_threads),
        expected(96.0, 7, 216, 711, 201)
    );
}
