//! Pinned exploration trajectories. The LP engine's arithmetic decides every
//! pivot, branch-and-bound node and candidate of an exploration, so a change
//! that must keep that arithmetic bit for bit (a faster factorization, for
//! one) must leave these counters exactly where they are. Each case runs the
//! complete mode on one thread, and most on two threads as well: there
//! speculative branch-and-bound prefetch solves extra node LPs, so the pivot
//! count pins the prefetch schedule too. `threads: 0` is not pinned, because
//! what it resolves to depends on the machine; `parallel.rs` checks that it
//! reproduces the serial run. Each six-line run takes about 0.8 s in the
//! test profile.

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

fn trajectory(p: &Problem, threads: usize) -> Trajectory {
    let cfg = ExplorerConfig {
        threads,
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
    assert_eq!(trajectory(&p, 1), expected(42.0, 43, 45, 4_920, 325));
    assert_eq!(trajectory(&p, 2), expected(42.0, 43, 45, 5_239, 325));
}

#[test]
fn rpl_both_lines_trajectory_is_pinned() {
    let p = rpl::build(&RplConfig::default(), RplLines::Both);
    assert_eq!(trajectory(&p, 1), expected(32.0, 7, 24, 1_048, 56));
    assert_eq!(trajectory(&p, 2), expected(32.0, 7, 24, 1_145, 56));
}

#[test]
fn rpl_three_parallel_lines_trajectory_is_pinned() {
    let p = rpl::build_parallel(&RplConfig::default(), 3);
    assert_eq!(trajectory(&p, 1), expected(48.0, 7, 54, 2_263, 69));
}

#[test]
fn rpl_six_parallel_lines_trajectory_is_pinned() {
    let p = rpl::build_parallel(&RplConfig::default(), 6);
    assert_eq!(trajectory(&p, 1), expected(96.0, 7, 216, 19_351, 206));
    assert_eq!(trajectory(&p, 2), expected(96.0, 7, 216, 20_820, 206));
}
