//! Warm starting changes the work, not the optimum. A warm-started
//! exploration (the default) must reach the optimum of a cold one
//! (`warm_start: false`) bit for bit. The rest of their trajectories are not
//! compared: on tied optima the dual repair may land on a different optimal
//! vertex, which can change the order in which equally-cheap candidates are
//! pruned, and so the checkpoint's cut rows. These tests pin that on the two
//! case-study systems, and that warm starts pay for themselves in pivots.

use contrarc::{Explorer, ExplorerConfig, Step};
use contrarc_systems::epn::{build as build_epn, EpnConfig};
use contrarc_systems::rpl::{build as build_rpl, RplConfig, RplLines};

/// What one exploration reached and spent.
struct Run {
    optimum: f64,
    /// Candidates pruned before the optimum.
    pruned: usize,
    /// Simplex pivots charged to the exploration budget.
    pivots: u64,
}

fn run(p: &contrarc::Problem, warm_start: bool) -> Run {
    let mut config = ExplorerConfig::complete();
    config.solve_options.warm_start = warm_start;
    let mut ex = Explorer::new(p, config).unwrap();
    let mut pruned = 0;
    let optimum = loop {
        match ex.step().unwrap() {
            Step::Pruned { .. } => pruned += 1,
            Step::Optimal(arch) => break arch.cost(),
            other => panic!("unexpected step {other:?}"),
        }
    };
    Run {
        optimum,
        pruned,
        pivots: ex.budget().pivots_used(),
    }
}

fn assert_warm_reaches_the_cold_optimum(p: &contrarc::Problem) {
    let (cold, warm) = (run(p, false), run(p, true));
    assert!(
        cold.pruned > 0,
        "case must exercise the cut loop to test warm starts"
    );
    assert_eq!(
        warm.optimum.to_bits(),
        cold.optimum.to_bits(),
        "warm-started optimum {} differs from cold {}",
        warm.optimum,
        cold.optimum
    );
}

#[test]
fn warm_starts_are_bit_identical_on_rpl_both_lines() {
    let p = build_rpl(&RplConfig::default(), RplLines::Both);
    assert_warm_reaches_the_cold_optimum(&p);
}

#[test]
fn warm_starts_halve_the_pivots_on_rpl_both_lines() {
    // Measured: 1,048 cold against 205 warm pivots.
    let p = build_rpl(&RplConfig::default(), RplLines::Both);
    let (cold, warm) = (run(&p, false), run(&p, true));
    assert_eq!(
        warm.optimum, cold.optimum,
        "warm-started optimum differs from cold"
    );
    assert!(
        cold.pivots >= 2 * warm.pivots,
        "warm starts saved too little: {} cold vs {} warm pivots",
        cold.pivots,
        warm.pivots
    );
}

#[test]
fn warm_starts_are_bit_identical_on_rpl_tight_latency() {
    let p = build_rpl(
        &RplConfig {
            max_latency: 42.0,
            ..RplConfig::default()
        },
        RplLines::LineA,
    );
    assert_warm_reaches_the_cold_optimum(&p);
}

#[test]
fn warm_starts_are_bit_identical_on_epn() {
    let p = build_epn(&EpnConfig::default());
    assert_warm_reaches_the_cold_optimum(&p);
}
