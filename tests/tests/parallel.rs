//! Exploration-level guarantees that tracing and budgets must not break:
//! a live trace sink never changes the exploration, a pivot budget that
//! runs out degrades to a partial result, and the path-keyed refinement
//! cache scores hits on a symmetric case study.

use contrarc::{explore, Exploration, Explorer, ExplorerCheckpoint, ExplorerConfig, Problem, Step};
use contrarc_milp::Budget;
use contrarc_systems::rpl::{self, RplConfig, RplLines};

/// Drive a full exploration stepwise so the learned cut set is observable,
/// returning the optimum cost and the final checkpoint.
fn run_stepwise(p: &Problem) -> (f64, ExplorerCheckpoint) {
    let mut ex = Explorer::new(p, ExplorerConfig::complete()).unwrap();
    loop {
        match ex.step().unwrap() {
            Step::Pruned { .. } => {}
            Step::Optimal(arch) => return (arch.cost(), ex.checkpoint()),
            other => panic!("expected an optimum, got {other:?}"),
        }
    }
}

#[test]
fn tracing_never_steers_the_exploration() {
    // A live sink must be purely observational: the optimum, the cut set
    // (names, coefficients, order) and every counter are bit for bit the
    // same with tracing enabled as on the disabled fast path, and the sink
    // really sees the traffic. The sink is defined locally to double as a
    // check that the `Sink` trait is implementable outside `contrarc-obs`.
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
    let (cost_on, ckpt_on) =
        contrarc_obs::with_sink(std::sync::Arc::<CountingSink>::clone(&sink), || {
            run_stepwise(&p)
        });
    assert!(
        sink.0.load(Ordering::Relaxed) > 0,
        "sink saw no events while tracing was enabled"
    );
    let (cost_off, ckpt_off) = run_stepwise(&p);
    assert_eq!(cost_on.to_bits(), cost_off.to_bits(), "optimum differs");
    assert_eq!(ckpt_on.cuts, ckpt_off.cuts, "cut set differs");
    assert_eq!(ckpt_on.aux_vars, ckpt_off.aux_vars, "aux vars differ");
    assert_eq!(ckpt_on.cut_seq, ckpt_off.cut_seq);
    assert_eq!(ckpt_on.stats.iterations, ckpt_off.stats.iterations);
    assert_eq!(ckpt_on.stats.cuts_added, ckpt_off.stats.cuts_added);
    assert_eq!(ckpt_on.stats.cache_hits, ckpt_off.stats.cache_hits);
    assert_eq!(ckpt_on.stats.cache_misses, ckpt_off.stats.cache_misses);
}

#[test]
fn budget_exhaustion_mid_run_yields_partial_not_panic() {
    let p = rpl::build(&RplConfig::default(), RplLines::Both);

    // Measure the full run's pivot appetite through a shared budget handle.
    let handle = Budget::unlimited();
    let mut config = ExplorerConfig::complete();
    config.solve_options.budget = handle.clone();
    let full = explore(&p, &config).unwrap();
    assert!(matches!(full, Exploration::Optimal { .. }));
    let full_pivots = handle.pivots_used();
    assert!(full_pivots > 0);

    // Grant half of it, and less: the run must degrade to Partial, never
    // panic.
    for limit in [full_pivots / 2, 25, 1] {
        let mut config = ExplorerConfig::complete();
        config.solve_options.budget = Budget::unlimited().with_pivot_limit(limit);
        let result = explore(&p, &config).unwrap();
        assert!(
            matches!(result, Exploration::Partial { .. }),
            "expected Partial under pivot limit {limit}, got {result:?}"
        );
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
