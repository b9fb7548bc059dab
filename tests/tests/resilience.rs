//! Resilience of the exploration loop: graceful degradation to partial
//! results under exhausted budgets, checkpoint/resume, accounting
//! invariants, and (behind the `fault-injection` feature) recovery from
//! injected solver failures.

use contrarc::{
    explore, Exploration, ExploreError, Explorer, ExplorerCheckpoint, ExplorerConfig, Problem,
    Step, StopReason,
};
use contrarc_milp::Budget;
use contrarc_systems::epn::{build as build_epn, EpnConfig};
use contrarc_systems::rpl::{build as build_rpl, build_parallel, RplConfig, RplLines};

/// A single RPL line with a latency budget tight enough to force pruning
/// iterations (the cheapest machines are too slow).
fn rpl_problem() -> contrarc::Problem {
    build_rpl(
        &RplConfig {
            max_latency: 42.0,
            ..RplConfig::default()
        },
        RplLines::LineA,
    )
}

#[test]
fn tiny_iteration_budget_returns_partial_with_cuts() {
    let p = rpl_problem();
    let config = ExplorerConfig {
        max_iterations: 1,
        ..ExplorerConfig::complete()
    };
    let result = explore(&p, &config).expect("budget exhaustion must not be an error");
    let Exploration::Partial {
        incumbent,
        lower_bound,
        stats,
        reason,
    } = result
    else {
        panic!("expected Partial, got {result:?}");
    };
    assert!(matches!(reason, StopReason::IterationLimit { limit: 1 }));
    assert!(
        stats.cuts_added > 0,
        "the first rejected candidate must leave cuts behind"
    );
    let inc = incumbent.expect("iteration 1 selects a candidate");
    let lb = lower_bound.expect("iteration 1 proves a floor");
    assert!(lb <= inc.cost() + 1e-9);
}

/// A caller that stops an exploration before it finishes, as the job server
/// does on a cancellation, reports the time its steps took.
#[test]
fn a_cancelled_exploration_reports_the_time_its_steps_took() {
    let p = build_epn(&EpnConfig::table2(1, 0, 0));
    let mut ex = Explorer::new(&p, ExplorerConfig::complete()).unwrap();
    for _ in 0..3 {
        assert!(matches!(ex.step().unwrap(), Step::Pruned { .. }));
    }
    let Some(Exploration::Partial {
        stats,
        reason: StopReason::Cancelled,
        ..
    }) = ex.conclude(Step::Exhausted(StopReason::Cancelled))
    else {
        panic!("a stopped loop concludes Partial");
    };
    let steps = stats.milp_time + stats.refine_time + stats.cert_time;
    assert!(
        stats.total_time >= steps,
        "total_time {} leaves out steps that took {steps}",
        stats.total_time
    );
}

#[test]
fn expired_deadline_returns_partial_not_err() {
    let p = rpl_problem();
    let config = ExplorerConfig {
        time_limit_secs: Some(0.0),
        ..ExplorerConfig::complete()
    };
    let result = explore(&p, &config).expect("deadline expiry must degrade, not fail");
    assert!(
        matches!(
            result,
            Exploration::Partial {
                reason: StopReason::TimeLimit { .. },
                ..
            }
        ),
        "got {result:?}"
    );
}

#[test]
fn pivot_budget_interrupts_mid_run_with_partial() {
    let p = rpl_problem();

    // Measure the total pivot work of an uninterrupted run through a shared
    // budget handle (unlimited, so the counters just count).
    let handle = Budget::unlimited();
    let mut config = ExplorerConfig::complete();
    config.solve_options.budget = handle.clone();
    let full = explore(&p, &config).unwrap();
    assert!(full.architecture().is_some());
    let total_pivots = handle.pivots_used();
    assert!(
        total_pivots >= 4,
        "need measurable pivot work, got {total_pivots}"
    );

    // Re-run with roughly half the allowance: the run must stop early and
    // still surface what it learned.
    let limit = total_pivots / 2;
    let mut config = ExplorerConfig::complete();
    config.solve_options.budget = Budget::unlimited().with_pivot_limit(limit);
    let result = explore(&p, &config).unwrap();
    let Exploration::Partial { reason, stats, .. } = &result else {
        panic!("expected Partial under half the pivot budget, got {result:?}");
    };
    assert!(matches!(reason, StopReason::PivotLimit { limit: l } if *l == limit));
    assert!(stats.total_time <= full.stats().total_time + 1.0);
}

/// Interrupt an exploration after one iteration, round-trip the checkpoint
/// through its text serialization, resume with a raised budget, and compare
/// against the uninterrupted run.
fn assert_resume_matches_full(p: &contrarc::Problem) {
    let full = explore(p, &ExplorerConfig::complete()).unwrap();
    let full_cost = full
        .architecture()
        .expect("problem must be feasible")
        .cost();
    let full_iters = full.stats().iterations;

    let mut ex = Explorer::new(
        p,
        ExplorerConfig {
            max_iterations: 1,
            ..ExplorerConfig::complete()
        },
    )
    .unwrap();
    loop {
        match ex.step().unwrap() {
            Step::Pruned { .. } => {}
            Step::Optimal(arch) => {
                // Converged within the tiny budget: nothing to resume.
                assert!((arch.cost() - full_cost).abs() < 1e-6);
                return;
            }
            Step::Exhausted(_) => break,
            Step::Infeasible => panic!("expected a feasible problem"),
        }
    }

    let ckpt = ex.checkpoint();
    let text = ckpt.to_text();
    let restored = ExplorerCheckpoint::from_text(&text).expect("serialization must round-trip");
    assert_eq!(
        ckpt, restored,
        "checkpoint must survive the text round-trip bit-exactly"
    );

    let resumed = Explorer::resume(p, ExplorerConfig::complete(), &restored).unwrap();
    let result = resumed.run().unwrap();
    let arch = result.architecture().expect("resumed run must converge");
    assert!(
        (arch.cost() - full_cost).abs() < 1e-6,
        "resumed optimum {} differs from uninterrupted {}",
        arch.cost(),
        full_cost
    );
    // Iteration counting continues across the interruption; together the two
    // halves retrace the uninterrupted run.
    assert_eq!(result.stats().iterations, full_iters);
    // The work done before the interruption stays on the books.
    assert!(result.stats().cuts_added >= restored.stats.cuts_added);
    assert_time_invariant(result.stats());
}

#[test]
fn checkpoint_resume_reaches_same_optimum_on_rpl() {
    assert_resume_matches_full(&rpl_problem());
}

#[test]
fn checkpoint_resume_reaches_same_optimum_on_epn() {
    assert_resume_matches_full(&build_epn(&EpnConfig::default()));
}

/// Checkpoint after every pruning step, resume from the text in a new
/// explorer, and finish: every resumed run must end as the uninterrupted
/// one does, the optimum bit for bit and the loop's counters exactly
/// (pivots and the cut order may differ, since the first solve after a
/// resume is cold). Returns the number of boundaries tried.
fn assert_resumes_identically_at_every_boundary(p: &Problem) -> usize {
    let full = explore(p, &ExplorerConfig::complete()).unwrap();
    let optimum = full.architecture().expect("feasible").cost();
    let counters =
        |s: &contrarc::ExplorationStats| (s.iterations, s.cuts_added, s.cache_hits, s.cache_misses);
    let mut ex = Explorer::new(p, ExplorerConfig::complete()).unwrap();
    let mut boundaries = 0;
    while let Step::Pruned { .. } = ex.step().unwrap() {
        boundaries += 1;
        let text = ex.checkpoint().to_text();
        let resumed = Explorer::resume_from_text(p, ExplorerConfig::complete(), &text)
            .unwrap()
            .run()
            .unwrap();
        let arch = resumed.architecture().expect("resumed run must converge");
        assert_eq!(
            arch.cost().to_bits(),
            optimum.to_bits(),
            "boundary {boundaries}"
        );
        assert_eq!(
            counters(resumed.stats()),
            counters(full.stats()),
            "boundary {boundaries}: iterations, cuts, cache hits and misses"
        );
    }
    boundaries
}

#[test]
fn resume_at_every_iteration_boundary_matches_the_uninterrupted_run() {
    assert_eq!(
        assert_resumes_identically_at_every_boundary(&build_epn(&EpnConfig::default())),
        42
    );
    assert_eq!(
        assert_resumes_identically_at_every_boundary(&build_parallel(&RplConfig::default(), 6)),
        6
    );
}

#[test]
fn checkpoint_text_changed_after_writing_never_resumes() {
    // EPN (1,0,0) after three iterations, whose cuts include a whole-scope
    // cut with its auxiliary binary `cut0[y]`.
    let p = build_epn(&EpnConfig::default());
    let mut ex = Explorer::new(&p, ExplorerConfig::complete()).unwrap();
    for _ in 0..3 {
        assert!(matches!(ex.step().unwrap(), Step::Pruned { .. }));
    }
    let text = ex.checkpoint().to_text();
    let resume = |text: &str| Explorer::resume_from_text(&p, ExplorerConfig::complete(), text);
    assert!(resume(&text).is_ok());

    // One flipped bit anywhere, the checksum line included.
    let mut bytes = text.clone().into_bytes();
    for i in 0..bytes.len() {
        bytes[i] ^= 1;
        let changed = String::from_utf8(bytes.clone()).expect("ASCII text");
        assert!(
            matches!(resume(&changed), Err(ExploreError::CheckpointParse(_))),
            "byte {i} flipped was not rejected"
        );
        bytes[i] ^= 1;
    }

    // Whole fields changed so that, resumed, the run would end infeasible
    // instead of at 42: the block row of the first whole-scope cut loosened
    // to −1, or its binary `cut0[y]` bounded to [2, 3].
    let edit = |record: &str, fields: &[(usize, f64)]| -> String {
        let mut found = false;
        let changed = text
            .lines()
            .map(|line| match line.split_once('\t') {
                Some((head, name)) if name == record => {
                    found = true;
                    let mut tok: Vec<String> = head.split(' ').map(String::from).collect();
                    for &(i, v) in fields {
                        tok[i] = format!("{:016x}", v.to_bits());
                    }
                    format!("{}\t{name}\n", tok.join(" "))
                }
                _ => format!("{line}\n"),
            })
            .collect();
        assert!(found, "no record {record}");
        changed
    };
    for changed in [
        edit("cut0[block]", &[(1, -1.0)]),
        edit("cut0[y]", &[(1, 2.0), (2, 3.0)]),
    ] {
        assert!(matches!(
            resume(&changed),
            Err(ExploreError::CheckpointParse(_))
        ));
    }
}

fn assert_time_invariant(stats: &contrarc::ExplorationStats) {
    let parts = stats.milp_time + stats.refine_time + stats.cert_time;
    assert!(
        parts <= stats.total_time + 0.05,
        "phase times {parts} exceed total {}",
        stats.total_time
    );
}

#[test]
fn phase_times_are_bounded_by_total_time() {
    let p = rpl_problem();
    let full = explore(&p, &ExplorerConfig::complete()).unwrap();
    assert_time_invariant(full.stats());

    // The invariant must also hold for a partial result...
    let config = ExplorerConfig {
        max_iterations: 1,
        ..ExplorerConfig::complete()
    };
    let partial = explore(&p, &config).unwrap();
    assert!(partial.is_partial());
    assert_time_invariant(partial.stats());

    // ...and for a live checkpoint, whose total_time includes the seconds
    // accumulated before it was taken.
    let ex = Explorer::new(&p, ExplorerConfig::complete()).unwrap();
    let ckpt = ex.checkpoint();
    assert_time_invariant(&ckpt.stats);
}

#[cfg(feature = "fault-injection")]
mod faults {
    use super::*;
    use contrarc_milp::{FaultKind, FaultPlan};

    /// A numerical breakdown injected into the k-th solver call must be
    /// absorbed by the retry ladder without changing the final optimum.
    #[test]
    fn injected_numerical_failure_is_absorbed_by_retry_ladder() {
        let p = rpl_problem();
        let clean = explore(&p, &ExplorerConfig::complete()).unwrap();
        let clean_cost = clean.architecture().expect("feasible").cost();

        for k in [1, 2, 3] {
            let plan = FaultPlan::new().inject_at(k, FaultKind::Numerical);
            let mut config = ExplorerConfig::complete();
            config.solve_options.fault_plan = Some(plan.clone());
            let result = explore(&p, &config)
                .unwrap_or_else(|e| panic!("fault at call {k} not absorbed: {e}"));
            let arch = result
                .architecture()
                .expect("faulted run must still converge");
            assert!(
                (arch.cost() - clean_cost).abs() < 1e-6,
                "fault at call {k} changed the optimum: {} vs {clean_cost}",
                arch.cost()
            );
            assert!(
                plan.calls_observed() >= k,
                "the faulted call must have happened"
            );
        }
    }

    /// A spurious deadline expiry injected into the solver degrades the
    /// exploration to a partial result instead of an error.
    #[test]
    fn injected_deadline_expiry_degrades_to_partial() {
        let p = rpl_problem();
        let mut config = ExplorerConfig::complete();
        config.solve_options.fault_plan =
            Some(FaultPlan::new().inject_at(1, FaultKind::DeadlineExpired));
        let result = explore(&p, &config).unwrap();
        assert!(
            matches!(
                result,
                Exploration::Partial {
                    reason: StopReason::TimeLimit { .. },
                    ..
                }
            ),
            "got {result:?}"
        );
    }

    /// An injected pivot-limit exhaustion likewise surfaces as Partial.
    #[test]
    fn injected_pivot_limit_degrades_to_partial() {
        let p = rpl_problem();
        let mut config = ExplorerConfig::complete();
        config.solve_options.fault_plan =
            Some(FaultPlan::new().inject_at(2, FaultKind::PivotLimit));
        let result = explore(&p, &config).unwrap();
        assert!(
            matches!(
                result,
                Exploration::Partial {
                    reason: StopReason::PivotLimit { .. },
                    ..
                }
            ),
            "got {result:?}"
        );
    }
}
