//! Warm starting changes the work, not the optimum. Cold explorations (the
//! default) and warm-started ones must each be **bit-identical** across
//! thread counts — same optimum bits, same per-iteration candidate costs,
//! same cuts, same counters, same checkpoint text — and a warm-started run
//! must reach the cold optimum. Warm and cold runs are not compared bit for
//! bit: on tied optima the dual repair may land on a different optimal
//! vertex, which can change the order in which equally-cheap candidates are
//! pruned, and so the checkpoint's cut rows. These tests pin that on the two
//! case-study systems, and that warm starts pay for themselves in pivots.

use contrarc::{Explorer, ExplorerConfig, Step};
use contrarc_systems::epn::{build as build_epn, EpnConfig};
use contrarc_systems::rpl::{build as build_rpl, RplConfig, RplLines};

/// Everything observable about one exploration, excluding wall-clock times
/// and work counters (pivots/nodes), which warm starting is *allowed* — and
/// expected — to change.
#[derive(Debug, PartialEq)]
struct Trajectory {
    /// Bit pattern of each pruned candidate's cost, in iteration order.
    pruned_costs: Vec<u64>,
    /// Cuts added per iteration.
    cuts_per_iter: Vec<usize>,
    /// Bit pattern of the final optimum.
    optimum: u64,
    iterations: usize,
    cuts_added: usize,
    cache_hits: u64,
    cache_misses: u64,
    /// Checkpoint text with the run-specific lines (`stats`, `usage`)
    /// removed: fingerprint, cost floor, and the exact cut rows.
    checkpoint: String,
}

/// One exploration's trajectory and the simplex pivots it spent.
fn run(p: &contrarc::Problem, warm_start: bool, threads: usize) -> (Trajectory, u64) {
    let mut config = ExplorerConfig::complete();
    config.solve_options.warm_start = warm_start;
    config.threads = threads;
    let mut ex = Explorer::new(p, config).unwrap();
    let mut pruned_costs = Vec::new();
    let mut cuts_per_iter = Vec::new();
    let optimum = loop {
        match ex.step().unwrap() {
            Step::Pruned {
                candidate,
                cuts_added,
                ..
            } => {
                pruned_costs.push(candidate.cost().to_bits());
                cuts_per_iter.push(cuts_added);
            }
            Step::Optimal(arch) => break arch.cost().to_bits(),
            other => panic!("unexpected step {other:?}"),
        }
    };
    let ckpt = ex.checkpoint();
    let checkpoint = ckpt
        .to_text()
        .lines()
        .filter(|l| !l.starts_with("stats ") && !l.starts_with("usage "))
        .collect::<Vec<_>>()
        .join("\n");
    let trajectory = Trajectory {
        pruned_costs,
        cuts_per_iter,
        optimum,
        iterations: ckpt.stats.iterations,
        cuts_added: ckpt.stats.cuts_added,
        cache_hits: ckpt.stats.cache_hits,
        cache_misses: ckpt.stats.cache_misses,
        checkpoint,
    };
    (trajectory, ex.budget().pivots_used())
}

fn assert_thread_invariant_and_warm_optimal(p: &contrarc::Problem) {
    let (cold, _) = run(p, false, 1);
    let (warm, _) = run(p, true, 1);
    assert!(
        !cold.pruned_costs.is_empty(),
        "case must exercise the cut loop to test warm starts"
    );
    let (cold_opt, warm_opt) = (f64::from_bits(cold.optimum), f64::from_bits(warm.optimum));
    assert!(
        (cold_opt - warm_opt).abs() <= 1e-9,
        "warm-started optimum {warm_opt} differs from cold {cold_opt}"
    );
    for threads in [2usize, 8] {
        assert_eq!(
            cold,
            run(p, false, threads).0,
            "cold run drifted across thread counts ({threads} threads)"
        );
        assert_eq!(
            warm,
            run(p, true, threads).0,
            "warm-started run drifted across thread counts ({threads} threads)"
        );
    }
}

#[test]
fn warm_starts_are_bit_identical_on_rpl_both_lines() {
    let p = build_rpl(&RplConfig::default(), RplLines::Both);
    assert_thread_invariant_and_warm_optimal(&p);
}

#[test]
fn warm_starts_halve_the_pivots_on_rpl_both_lines() {
    // Measured: 1,048 cold against 205 warm pivots on one thread.
    let p = build_rpl(&RplConfig::default(), RplLines::Both);
    let (cold, cold_pivots) = run(&p, false, 1);
    let (warm, warm_pivots) = run(&p, true, 1);
    assert_eq!(
        f64::from_bits(warm.optimum),
        f64::from_bits(cold.optimum),
        "warm-started optimum differs from cold"
    );
    assert!(
        cold_pivots >= 2 * warm_pivots,
        "warm starts saved too little: {cold_pivots} cold vs {warm_pivots} warm pivots"
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
    assert_thread_invariant_and_warm_optimal(&p);
}

#[test]
fn warm_starts_are_bit_identical_on_epn() {
    let p = build_epn(&EpnConfig::default());
    assert_thread_invariant_and_warm_optimal(&p);
}
