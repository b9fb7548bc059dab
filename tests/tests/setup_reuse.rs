//! The cut loop grows its selection MILP's root setup instead of rebuilding
//! it. Each selection after the first extends the previous selection's
//! presolve run and standard form wherever that provably equals a rebuild,
//! and the milp counters say which each MILP solve did. These pins hold
//! those counts for two complete explorations, so a change that switches
//! the reuse off, or widens it past what is exact, shows here. The
//! trajectory pins in `trajectory.rs` hold the other half: the same pivots,
//! nodes and cuts as a rebuild.
//!
//! The counters live in the process-global metrics registry. Every test in
//! this file runs inside `with_metrics`, which serializes its callers, and
//! no other test shares this binary.

use contrarc::{Explorer, ExplorerConfig, Problem, Step};
use contrarc_obs::metrics::with_metrics;
use contrarc_systems::epn::{self, EpnConfig};
use contrarc_systems::rpl::{self, RplConfig};

/// Setup counts of one exploration: `[presolve reused, presolve rerun, form
/// extended, form rebuilt]`, over every MILP solve, refinement queries
/// included.
fn setup_counts(p: &Problem) -> (usize, [u64; 4]) {
    let (iterations, report) = with_metrics(|| {
        let mut ex = Explorer::new(p, ExplorerConfig::complete()).unwrap();
        loop {
            match ex.step().unwrap() {
                Step::Pruned { .. } => {}
                Step::Optimal(_) => break ex.stats().iterations,
                other => panic!("expected an optimum, got {other:?}"),
            }
        }
    });
    let counter = |name| report.counter(name).unwrap_or(0);
    (
        iterations,
        [
            counter("milp.presolve_reused"),
            counter("milp.presolve_rerun"),
            counter("milp.form_extended"),
            counter("milp.form_rebuilt"),
        ],
    )
}

#[test]
fn epn_selections_extend_their_setup() {
    // EPN (1,0,0): 43 selections and 172 refinement queries. Each query is
    // a new model, so it presolves afresh, and 89 of them get past presolve
    // to build a form. Of the 42 selections after the first, 39 reuse the
    // presolve run (3 appended cut batches write a bound in some round) and
    // 40 extend the form (2 batches move an existing column's factor).
    let p = epn::build(&EpnConfig::default());
    let (iterations, counts) = setup_counts(&p);
    assert_eq!(iterations, 43);
    assert_eq!(counts, [39, 4 + 172, 40, 3 + 89]);
}

#[test]
fn six_parallel_rpl_lines_extend_their_setup() {
    // Seven selections and 28 refinement queries, 14 of which get past
    // presolve to build a form. Every selection after the first reuses the
    // presolve run; 5 of the 6 extend the form.
    let p = rpl::build_parallel(&RplConfig::default(), 6);
    let (iterations, counts) = setup_counts(&p);
    assert_eq!(iterations, 7);
    assert_eq!(counts, [6, 1 + 28, 5, 2 + 14]);
}
