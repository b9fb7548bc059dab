//! Pinned exploration trajectories. The LP engine's arithmetic decides every
//! pivot, branch-and-bound node and candidate of an exploration, so a change
//! that must keep that arithmetic bit for bit (a faster factorization, for
//! one) must leave these counters exactly where they are. Each case runs the
//! complete mode on one thread.

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

fn trajectory(p: &Problem) -> Trajectory {
    let cfg = ExplorerConfig {
        threads: 1,
        ..ExplorerConfig::complete()
    };
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
    assert_eq!(trajectory(&p), expected(42.0, 43, 45, 4_920, 325));
}

#[test]
fn rpl_both_lines_trajectory_is_pinned() {
    let p = rpl::build(&RplConfig::default(), RplLines::Both);
    assert_eq!(trajectory(&p), expected(32.0, 7, 24, 1_048, 56));
}

#[test]
fn rpl_three_parallel_lines_trajectory_is_pinned() {
    let p = rpl::build_parallel(&RplConfig::default(), 3);
    assert_eq!(trajectory(&p), expected(48.0, 7, 54, 2_263, 69));
}
