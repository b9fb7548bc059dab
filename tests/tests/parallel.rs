//! Determinism of the parallel exploration engine: for any thread count the
//! exploration must reproduce the serial run bit for bit — same optimum,
//! same certificate cuts, same iteration and cache counters. Only wall-clock
//! time (and, under a finite work budget, the exact exhaustion point) may
//! differ.

use contrarc::{explore, Exploration, Explorer, ExplorerCheckpoint, ExplorerConfig, Problem, Step};
use contrarc_milp::Budget;
use contrarc_systems::epn::{self, EpnConfig};
use contrarc_systems::rpl::{self, RplConfig, RplLines};

fn config_with_threads(threads: usize) -> ExplorerConfig {
    ExplorerConfig {
        threads,
        ..ExplorerConfig::complete()
    }
}

/// Drive a full exploration stepwise so the learned cut set is observable,
/// returning the optimum cost and the final checkpoint.
fn run_stepwise(p: &Problem, threads: usize) -> (f64, ExplorerCheckpoint) {
    let mut ex = Explorer::new(p, config_with_threads(threads)).unwrap();
    loop {
        match ex.step().unwrap() {
            Step::Pruned { .. } => {}
            Step::Optimal(arch) => return (arch.cost(), ex.checkpoint()),
            other => panic!("expected an optimum, got {other:?}"),
        }
    }
}

/// The serial run and every parallel run agree on the optimum (to the bit),
/// the certificate cut set (names, coefficients, order), and every
/// schedule-independent statistic.
fn assert_thread_count_invariant(p: &Problem) {
    let (cost_1, ckpt_1) = run_stepwise(p, 1);
    for threads in [2, 8] {
        let (cost_t, ckpt_t) = run_stepwise(p, threads);
        assert_eq!(
            cost_1.to_bits(),
            cost_t.to_bits(),
            "optimum differs at threads={threads}"
        );
        assert_eq!(
            ckpt_1.cuts, ckpt_t.cuts,
            "cut set differs at threads={threads}"
        );
        assert_eq!(
            ckpt_1.aux_vars, ckpt_t.aux_vars,
            "aux vars differ at threads={threads}"
        );
        assert_eq!(ckpt_1.cut_seq, ckpt_t.cut_seq);
        assert_eq!(ckpt_1.stats.iterations, ckpt_t.stats.iterations);
        assert_eq!(ckpt_1.stats.cuts_added, ckpt_t.stats.cuts_added);
        assert_eq!(
            ckpt_1.stats.cache_hits, ckpt_t.stats.cache_hits,
            "cache hits differ at threads={threads}"
        );
        assert_eq!(
            ckpt_1.stats.cache_misses, ckpt_t.stats.cache_misses,
            "cache misses differ at threads={threads}"
        );
    }
}

#[test]
fn rpl_exploration_is_identical_for_1_2_8_threads() {
    let p = rpl::build(&RplConfig::default(), RplLines::Both);
    assert_thread_count_invariant(&p);
}

#[test]
fn epn_exploration_is_identical_for_1_2_8_threads() {
    let p = epn::build(&EpnConfig::table2(1, 0, 0));
    assert_thread_count_invariant(&p);
}

#[test]
fn tracing_never_steers_the_exploration() {
    // A live sink must be purely observational: the full thread-count
    // invariant (optimum, cut set, counters — bit for bit) holds with
    // tracing enabled exactly as it does disabled, and the sink really
    // sees the traffic. The sink is defined locally to double as a check
    // that the `Sink` trait is implementable outside `contrarc-obs`.
    use std::sync::atomic::{AtomicU64, Ordering};

    #[derive(Default)]
    struct CountingSink(AtomicU64);
    impl contrarc_obs::Sink for CountingSink {
        fn record(&self, _event: &contrarc_obs::Event) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    let p = rpl::build(&RplConfig::default(), RplLines::Both);
    let sink = std::sync::Arc::new(CountingSink::default());
    contrarc_obs::with_sink(std::sync::Arc::<CountingSink>::clone(&sink), || {
        assert_thread_count_invariant(&p);
    });
    assert!(
        sink.0.load(Ordering::Relaxed) > 0,
        "sink saw no events while tracing was enabled"
    );
    // And once more with the sink gone, to pin down that the invariant
    // holds identically on the disabled fast path.
    assert_thread_count_invariant(&p);
}

#[test]
fn budget_exhaustion_mid_parallel_yields_partial_not_panic() {
    let p = rpl::build(&RplConfig::default(), RplLines::Both);

    // Measure the full run's pivot appetite through a shared budget handle.
    let handle = Budget::unlimited();
    let mut config = config_with_threads(1);
    config.solve_options.budget = handle.clone();
    let full = explore(&p, &config).unwrap();
    assert!(matches!(full, Exploration::Optimal { .. }));
    let full_pivots = handle.pivots_used();
    assert!(full_pivots > 0);

    // Grant half of it to a parallel run: speculative workers race the
    // shared allowance and must degrade to Partial, never panic or deadlock.
    for limit in [full_pivots / 2, 25, 1] {
        let mut config = config_with_threads(8);
        config.solve_options.budget = Budget::unlimited().with_pivot_limit(limit);
        let result = explore(&p, &config).unwrap();
        let Exploration::Partial { reason, .. } = &result else {
            panic!("expected Partial under pivot limit {limit}, got {result:?}");
        };
        let _ = reason;
    }
}

#[test]
fn refinement_cache_hit_rate_is_positive() {
    // RPL's two symmetric lines make label-identical paths unavoidable, so
    // the path-keyed cache must score hits even within one iteration.
    let p = rpl::build(&RplConfig::default(), RplLines::Both);
    let result = explore(&p, &ExplorerConfig::complete()).unwrap();
    let stats = result.stats();
    assert!(stats.cache_misses > 0, "cache never consulted");
    assert!(
        stats.cache_hits > 0,
        "no cache hits on a symmetric case study: {stats}"
    );
}
